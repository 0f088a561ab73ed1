package skinner

import (
	"errors"
	"testing"
	"time"

	"monsoon/internal/engine"
	"monsoon/internal/expr"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

func fixture() (*table.Catalog, *query.Query) {
	cat := table.NewCatalog()
	rs := table.NewSchema(
		table.Column{Table: "R", Name: "a", Kind: value.KindInt},
		table.Column{Table: "R", Name: "b", Kind: value.KindInt},
	)
	rb := table.NewBuilder("R", rs)
	for i := 0; i < 2000; i++ {
		rb.Add(value.Int(7), value.Int(int64(i%40)))
	}
	cat.Put(rb.Build())
	ss := table.NewSchema(table.Column{Table: "S", Name: "k", Kind: value.KindInt})
	sb := table.NewBuilder("S", ss)
	for i := 0; i < 100; i++ {
		sb.Add(value.Int(7))
	}
	cat.Put(sb.Build())
	ts := table.NewSchema(table.Column{Table: "T", Name: "k", Kind: value.KindInt})
	tb := table.NewBuilder("T", ts)
	for i := 0; i < 100; i++ {
		tb.Add(value.Int(int64(1000 + i)))
	}
	cat.Put(tb.Build())
	q := query.NewBuilder("rst").
		Rel("R", "R").Rel("S", "S").Rel("T", "T").
		Join(expr.Identity("R.a"), expr.Identity("S.k")).
		Join(expr.Identity("R.b"), expr.Identity("T.k")).
		MustBuild()
	return cat, q
}

func referenceRows(t *testing.T) int {
	t.Helper()
	cat, q := fixture()
	ex := engine.New(cat).NewExec(engine.ExecConfig{})
	tree := plan.NewJoin(plan.NewJoin(
		plan.NewLeaf(query.NewAliasSet("R")), plan.NewLeaf(query.NewAliasSet("T"))),
		plan.NewLeaf(query.NewAliasSet("S")))
	rel, _, err := ex.ExecTree(q, tree, &engine.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	return rel.Count()
}

func TestSkinnerCompletes(t *testing.T) {
	want := referenceRows(t)
	cat, q := fixture()
	ex := engine.New(cat).NewExec(engine.ExecConfig{})
	res, err := Run(q, ex, &engine.Budget{}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != want {
		t.Errorf("rows = %d, want %d", res.Rows, want)
	}
	if res.Episodes < 1 {
		t.Error("must run at least one episode")
	}
}

func TestSkinnerWastesWorkAcrossEpisodes(t *testing.T) {
	// The good order finishes within ~2.3k tuples; Skinner's early episodes
	// at small budgets plus discarded bad-order work should cost strictly
	// more than one clean run unless it got lucky on the first draw.
	cat, q := fixture()
	ex := engine.New(cat).NewExec(engine.ExecConfig{})
	multi := 0
	for seed := int64(0); seed < 6; seed++ {
		ex.Reset()
		res, err := Run(q, ex, &engine.Budget{}, Config{Seed: seed, InitialBudget: 500})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Episodes > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("expected at least one multi-episode run across seeds")
	}
}

func TestSkinnerRespectsDeadline(t *testing.T) {
	cat, q := fixture()
	ex := engine.New(cat).NewExec(engine.ExecConfig{})
	b := &engine.Budget{Deadline: time.Now().Add(-time.Second)}
	_, err := Run(q, ex, b, Config{Seed: 2})
	if !errors.Is(err, engine.ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestSkinnerRespectsGlobalTupleCap(t *testing.T) {
	cat, q := fixture()
	ex := engine.New(cat).NewExec(engine.ExecConfig{})
	b := &engine.Budget{MaxTuples: 300}
	_, err := Run(q, ex, b, Config{Seed: 3, InitialBudget: 100})
	if !errors.Is(err, engine.ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestSkinnerBudgetGrowth(t *testing.T) {
	// With a tiny initial budget the run must still finish by growing it.
	cat, q := fixture()
	ex := engine.New(cat).NewExec(engine.ExecConfig{})
	res, err := Run(q, ex, &engine.Budget{}, Config{
		Seed: 4, InitialBudget: 10, Growth: 4, EpisodesPerBudget: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Episodes < 3 {
		t.Errorf("expected several episodes with a tiny budget, got %d", res.Episodes)
	}
}

// TestSkinnerLearnsAcrossEpisodes: with a budget that only the good order
// fits, the UCT prefix statistics must steer later episodes toward it — the
// run completes instead of looping forever on bad orders.
func TestSkinnerLearnsAcrossEpisodes(t *testing.T) {
	cat, q := fixture()
	ex := engine.New(cat).NewExec(engine.ExecConfig{})
	// The good order (T first: R⋈T empty) costs ~2.2k; R⋈S-first costs 202k.
	// Freeze the budget below the bad orders' cost so only learning finishes
	// the query (no growth).
	res, err := Run(q, ex, &engine.Budget{}, Config{
		Seed: 5, InitialBudget: 5000, Growth: 1.0001, EpisodesPerBudget: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Episodes > 12 {
		t.Errorf("UCT should find the only feasible order quickly, took %d episodes", res.Episodes)
	}
	if res.Rows != 0 {
		t.Errorf("rows = %d, want 0", res.Rows)
	}
}

func TestChooseOrderAvoidsCrossProducts(t *testing.T) {
	_, q := fixture()
	prefixes := map[string]*uctNode{}
	rng := fakeRng{}
	for i := 0; i < 20; i++ {
		order := chooseOrder(q, prefixes, 1.4, rng)
		if len(order) != 3 {
			t.Fatalf("order = %v", order)
		}
		// S and T are never adjacent at the start (S,T or T,S would cross).
		if (order[0] == "S" && order[1] == "T") || (order[0] == "T" && order[1] == "S") {
			t.Errorf("order %v starts with a cross product", order)
		}
		updateOrder(prefixes, order, 0.5)
	}
}

type fakeRng struct{}

func (fakeRng) Intn(n int) int { return 0 }
