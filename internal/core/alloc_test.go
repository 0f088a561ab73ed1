package core

import (
	"testing"

	"monsoon/internal/prior"
	"monsoon/internal/randx"
)

// TestSimulationAllocationCeilings gates what one MCTS iteration allocates
// on the R/S/T fixture, call by call. Each ceiling is what the call cost when
// it was set plus two (what it cost before the copy-on-write statistics and
// bitset alias sets is the "was" figure; CHANGES.md, PR 16), so an accidental
// map clone or string join on the simulation path fails here instead of
// eroding serve_cold unnoticed.
func TestSimulationAllocationCeilings(t *testing.T) {
	cat, q := fixture()
	root, _ := initState(q, cat)
	m := &Model{Q: q, Prior: prior.Default(), Rng: randx.New(1)}

	joinRS := &Action{Kind: ActJoinMats, A: "R", B: "S"}
	planned, _, _ := m.Step(root, joinRS)
	// A state two transitions deep, as the search meets them: a sampled
	// world's overlay over the frozen session statistics.
	sigma, _, _ := m.Step(root, &Action{Kind: ActSigmaCopy, A: "S"})
	world, _, _ := m.Step(sigma, &Action{Kind: ActExecute})
	m.RolloutAction(world, m.Rng) // warm the model's scratch overlay
	world.OutcomeKey()

	for _, c := range []struct {
		name    string
		ceiling float64
		call    func()
	}{
		// The state, its planned slice, two leaves and the join node: 5, was 13.
		{"Step/plan-edit", 7, func() { m.Step(root, joinRS) }},
		// State, overlay, deriver, the overlay's lazily made maps, the new
		// frontier; the miss closure is the model's and the predicates are
		// walked in place: 8, was 10.
		{"Step/EXECUTE", 10, func() { m.Step(planned, &Action{Kind: ActExecute}) }},
		// A leaf per free relation, a node per candidate join, the deriver,
		// raw-count keys, the result; the scratch overlay's maps are reused:
		// 9, was 12.
		{"RolloutAction", 11, func() { m.RolloutAction(world, m.Rng) }},
		// The action list, the interface slice, the pair enumeration's
		// leaves and slices; one backing array holds the actions, so none is
		// boxed on its own: 8, was 12.
		{"Legal", 10, func() { m.Legal(world) }},
		// The statistics half is remembered by the store; what is left is the
		// builder growing once: 2, was 19.
		{"OutcomeKey", 4, func() { world.OutcomeKey() }},
	} {
		if got := testing.AllocsPerRun(200, c.call); got > c.ceiling {
			t.Errorf("%s allocates %v objects per call, ceiling %v", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %v allocs/call (ceiling %v)", c.name, got, c.ceiling)
		}
	}
}
