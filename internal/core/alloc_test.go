package core

import (
	"runtime"
	"testing"

	"monsoon/internal/bench/udf"
	"monsoon/internal/engine"
	"monsoon/internal/prior"
	"monsoon/internal/randx"
)

// TestSimulationAllocationCeilings gates what one MCTS iteration allocates
// on the R/S/T fixture, call by call. Each ceiling is what the call cost when
// it was set plus two (the "was" figures are earlier counts, recorded in
// CHANGES.md), so an accidental map clone or string join on the simulation path
// fails here instead of eroding serve_cold unnoticed. A playout — the whole
// default-policy phase of an iteration — allocates nothing once its model's
// scratch has grown.
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
	// Warm the model's scratch, freeze the states' heads, grow the key buffer.
	m.Playout(world, m.Rng, 200)
	m.Playout(root, m.Rng, 200)
	key := world.AppendOutcomeKey(nil)

	for _, c := range []struct {
		name    string
		ceiling float64
		call    func()
	}{
		// The state, its planned slice and the join node; the leaves are the
		// frontier's: 3, was 13.
		{"Step/plan-edit", 7, func() { m.Step(root, joinRS) }},
		// State, overlay, its lazily made maps, the frontier's two slices and
		// its new leaf; the deriver is the model's: 9, was 8 before the
		// frontier carried its leaves and 10 before that.
		{"Step/EXECUTE", 10, func() { m.Step(planned, &Action{Kind: ActExecute}) }},
		// The action handed out; the candidate joins, the pricing overlay and
		// the deriver are the scratch's: 1, was 12.
		{"RolloutAction", 3, func() { m.RolloutAction(world, m.Rng) }},
		// Every transition of the greedy completion, played on the scratch
		// world: 0, was a Step and a RolloutAction per transition.
		{"Playout", 0, func() { m.Playout(world, m.Rng, 200) }},
		{"Playout (root)", 0, func() { m.Playout(root, m.Rng, 200) }},
		// The action list and the interface slice; the pair enumeration's
		// slices are the scratch's: 2, was 12.
		{"Legal", 4, func() { m.Legal(world) }},
		// The search renders the key into its buffer, and the statistics
		// half of a sampled world into the same buffer: 0, was 19.
		{"OutcomeKey", 2, func() { key = world.AppendOutcomeKey(key[:0]) }},
	} {
		if got := testing.AllocsPerRun(200, c.call); got > c.ceiling {
			t.Errorf("%s allocates %v objects per call, ceiling %v", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %v allocs/call (ceiling %v)", c.name, got, c.ceiling)
		}
	}
}

// TestColdPlanBytes gates the bytes one cold planning round allocates — a
// full MCTS search per action until EXECUTE, as serve_cold runs on every
// request — on the widest UDF query at the served scale (harness.Small's UDF
// data and 400 iterations). The ceiling is the count measured when nodes
// began listing their actions only once entered and shards merged at the root
// alone, plus 10 %; before, the round allocated 2.61 MB (ceiling 2.87 MB), and
// 10.04 MB before playouts moved onto the scratch world. Shards run serially
// so the count does not depend on the machine.
func TestColdPlanBytes(t *testing.T) {
	const ceiling = 2_101_000 // 1.91 MB measured
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, qc := range udf.Generate(udf.Config{Titles: 600, ScaleFactor: 0.003, Seed: 1}).All() {
		if qc.Query.Name != "udf-t10" {
			continue
		}
		sess := NewSession(qc.Query, engine.New(qc.Cat), nil,
			Config{Iterations: 400, Seed: 5})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := sess.PlanRound(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
			t.Errorf("a cold PlanRound of %s allocates %d bytes, ceiling %d", qc.Query.Name, got, ceiling)
		} else {
			t.Logf("a cold PlanRound of %s: %d bytes (ceiling %d)", qc.Query.Name, got, ceiling)
		}
		return
	}
	t.Fatal("udf-t10 is not in the UDF suite")
}
