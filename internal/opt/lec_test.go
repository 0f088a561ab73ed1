package opt

import (
	"testing"

	"monsoon/internal/engine"
	"monsoon/internal/prior"
	"monsoon/internal/randx"
	"monsoon/internal/stats"
)

func TestLECProducesValidPlan(t *testing.T) {
	cat, q := fixture()
	eng := engine.New(cat)
	st := stats.New()
	eng.SeedBaseStats(q, st)
	tree, err := LECPlan(q, st, prior.Default(), randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Aliases().Key() != "R+S+T" {
		t.Errorf("LEC plan incomplete: %v", tree)
	}
	// The plan must execute correctly.
	rel, _, err := eng.NewExec(engine.ExecConfig{}).ExecTree(q, tree, &engine.Budget{MaxTuples: 1e7})
	if err != nil {
		t.Fatal(err)
	}
	_ = rel
}

func TestLECDeterministicGivenSeed(t *testing.T) {
	cat, q := fixture()
	eng := engine.New(cat)
	st := stats.New()
	eng.SeedBaseStats(q, st)
	a, err := LECPlan(q, st, prior.Default(), randx.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := LECPlan(q, st, prior.Default(), randx.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("LEC nondeterministic: %s vs %s", a, b)
	}
}

// TestLECExploitsMeasuredStats: with the truth already in the store, LEC's
// worlds all agree and it must pick the known-optimal order (R⋈T first).
func TestLECExploitsMeasuredStats(t *testing.T) {
	cat, q := fixture()
	st := CollectFullStats(q, cat)
	tree, err := LECPlan(q, st, prior.Default(), randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	s := tree.String()
	if s != "((R⋈T)⋈S)" && s != "((T⋈R)⋈S)" && s != "(S⋈(R⋈T))" && s != "(S⋈(T⋈R))" {
		t.Errorf("LEC with full stats picked %q, want the R⋈T-first order", s)
	}
}
