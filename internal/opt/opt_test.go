package opt

import (
	"math"
	"strings"
	"testing"

	"monsoon/internal/cost"
	"monsoon/internal/engine"
	"monsoon/internal/expr"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/stats"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// fixture is the same trap world as the core tests: R⋈S is a disguised cross
// product (both join terms constant), R⋈T is empty.
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

func TestBestPlanWithExactStats(t *testing.T) {
	cat, q := fixture()
	st := CollectFullStats(q, cat)
	dv := &cost.Deriver{Q: q, St: st, Miss: cost.PanicMiss()}
	tree, err := BestPlan(q, dv)
	if err != nil {
		t.Fatal(err)
	}
	// With exact stats the optimizer must join R with T first (empty) and
	// never start with the exploding R⋈S.
	s := tree.String()
	if !strings.Contains(s, "(R⋈T)") && !strings.Contains(s, "(T⋈R)") {
		t.Errorf("plan %q should start with the selective R–T join", s)
	}
	if tree.Aliases().Key() != "R+S+T" {
		t.Errorf("plan must cover all aliases, got %v", tree.Aliases())
	}
}

func TestBestPlanDefaultsDiffer(t *testing.T) {
	// Defaults (d = 0.1c) sees R⋈S as 2000·100/200 = 1000 and R⋈T as
	// 2000·100/200 = 1000 — a toss-up decided by tie-breaking; it must still
	// produce a valid full plan.
	cat, q := fixture()
	eng := engine.New(cat)
	st := stats.New()
	eng.SeedBaseStats(q, st)
	dv := &cost.Deriver{Q: q, St: st, Miss: cost.DefaultMiss(0.1)}
	tree, err := BestPlan(q, dv)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Aliases().Key() != "R+S+T" {
		t.Errorf("plan incomplete: %s", tree)
	}
}

func TestBestPlanAvoidsCrossProducts(t *testing.T) {
	cat, q := fixture()
	st := CollectFullStats(q, cat)
	dv := &cost.Deriver{Q: q, St: st, Miss: cost.DefaultMiss(0.1)}
	tree, err := BestPlan(q, dv)
	if err != nil {
		t.Fatal(err)
	}
	// No subtree may join S and T directly (a cross product).
	var walk func(n interface{ String() string })
	_ = walk
	if strings.Contains(tree.String(), "(S⋈T)") || strings.Contains(tree.String(), "(T⋈S)") {
		t.Errorf("plan %q contains a needless cross product", tree)
	}
}

func TestBestPlanHandlesDisconnectedQueries(t *testing.T) {
	// Two relations, no predicate: the only plan is a cross product and the
	// second DP pass must admit it.
	cat, _ := fixture()
	q := query.NewBuilder("cross").Rel("S", "S").Rel("T", "T").MustBuild()
	eng := engine.New(cat)
	st := stats.New()
	eng.SeedBaseStats(q, st)
	dv := &cost.Deriver{Q: q, St: st, Miss: cost.DefaultMiss(0.1)}
	tree, err := BestPlan(q, dv)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Aliases().Key() != "S+T" {
		t.Errorf("cross-product plan missing: %v", tree)
	}
}

func TestBestPlanMultiTableUDF(t *testing.T) {
	// F(s,t1) = id(t2): the product s×t1 must be admitted (it makes the term
	// evaluable) even though no predicate links s and t1.
	cat, _ := fixture()
	q := query.NewBuilder("multi").
		Rel("s", "S").Rel("t1", "T").Rel("t2", "T").
		Join(expr.SumMod("s.k", "t1.k", 50), expr.Identity("t2.k")).
		MustBuild()
	eng := engine.New(cat)
	st := stats.New()
	eng.SeedBaseStats(q, st)
	dv := &cost.Deriver{Q: q, St: st, Miss: cost.DefaultMiss(0.1)}
	tree, err := BestPlan(q, dv)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Aliases().Key() != "s+t1+t2" {
		t.Errorf("plan incomplete: %v", tree)
	}
	if !strings.Contains(tree.String(), "s⋈t1") && !strings.Contains(tree.String(), "t1⋈s") {
		t.Errorf("plan %q must build s×t1 before joining t2", tree)
	}
}

func TestGreedyPlan(t *testing.T) {
	cat, q := fixture()
	eng := engine.New(cat)
	st := stats.New()
	eng.SeedBaseStats(q, st)
	tree, err := GreedyPlan(q, st)
	if err != nil {
		t.Fatal(err)
	}
	// Smallest set first (S or T, both 100, tie → alias order: S), then the
	// next smallest avoiding a cross product: only R connects to S.
	if got := tree.String(); got != "((S⋈R)⋈T)" {
		t.Errorf("greedy plan = %q, want ((S⋈R)⋈T)", got)
	}
}

func TestGreedyCrossProductOnlyWhenNecessary(t *testing.T) {
	cat, _ := fixture()
	q := query.NewBuilder("cross").Rel("S", "S").Rel("T", "T").MustBuild()
	eng := engine.New(cat)
	st := stats.New()
	eng.SeedBaseStats(q, st)
	tree, err := GreedyPlan(q, st)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Aliases().Key() != "S+T" {
		t.Errorf("greedy must cross when necessary: %v", tree)
	}
}

func TestGreedyMissingStats(t *testing.T) {
	_, q := fixture()
	if _, err := GreedyPlan(q, stats.New()); err == nil {
		t.Error("greedy without raw counts must error")
	}
}

func TestCollectFullStatsExact(t *testing.T) {
	cat, q := fixture()
	st := CollectFullStats(q, cat)
	if c, _ := st.Count(stats.RawKey("R")); c != 2000 {
		t.Errorf("raw R = %v", c)
	}
	// Terms: 0 = id(R.a) d=1, 1 = id(S.k) d=1, 2 = id(R.b) d=40, 3 = id(T.k) d=100.
	for term, want := range map[int]float64{0: 1, 1: 1, 2: 40, 3: 100} {
		expr := q.Term(term).Aliases.Key()
		if d, ok := st.Measured(term, expr); !ok || d != want {
			t.Errorf("term %d d = %v,%v want %v", term, d, ok, want)
		}
	}
}

func TestCollectOnDemand(t *testing.T) {
	cat, q := fixture()
	ex := engine.New(cat).NewExec(engine.ExecConfig{})
	b := &engine.Budget{}
	st, err := CollectOnDemand(q, ex, b)
	if err != nil {
		t.Fatal(err)
	}
	for term, want := range map[int]float64{0: 1, 1: 1, 2: 40, 3: 100} {
		exprKey := q.Term(term).Aliases.Key()
		d, ok := st.Measured(term, exprKey)
		if !ok {
			t.Fatalf("term %d not measured", term)
		}
		if math.Abs(d-want)/want > 0.1 {
			t.Errorf("term %d HLL d = %v, want ~%v", term, d, want)
		}
	}
	// The scans were charged: R + S + T rows.
	if b.Produced() != 2200 {
		t.Errorf("charged %v, want 2200", b.Produced())
	}
}

func TestCollectOnDemandBudgetAbort(t *testing.T) {
	cat, q := fixture()
	ex := engine.New(cat).NewExec(engine.ExecConfig{})
	b := &engine.Budget{MaxTuples: 10}
	if _, err := CollectOnDemand(q, ex, b); err == nil {
		t.Error("tiny budget must abort the stats pass")
	}
}

func TestCollectSamplingSingleTable(t *testing.T) {
	cat, q := fixture()
	ex := engine.New(cat).NewExec(engine.ExecConfig{})
	st, err := CollectSampling(q, ex, &engine.Budget{}, randx.New(21))
	if err != nil {
		t.Fatal(err)
	}
	// Constant columns must estimate d = 1 exactly (every sample row equal).
	if d, ok := st.Measured(0, "R"); !ok || d != 1 {
		t.Errorf("sampled d(R.a) = %v,%v want 1", d, ok)
	}
	// High-cardinality T.k: GEE should land within a loose factor.
	d, ok := st.Measured(3, "T")
	if !ok || d < 20 || d > 100 {
		t.Errorf("sampled d(T.k) = %v,%v want within [20,100]", d, ok)
	}
}

func TestCollectSamplingMultiTable(t *testing.T) {
	cat, _ := fixture()
	q := query.NewBuilder("multi").
		Rel("s", "S").Rel("t1", "T").Rel("t2", "T").
		Join(expr.SumMod("s.k", "t1.k", 13), expr.Identity("t2.k")).
		MustBuild()
	ex := engine.New(cat).NewExec(engine.ExecConfig{})
	b := &engine.Budget{}
	st, err := collectSampling(q, ex, b, randx.New(23), 500)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := st.Measured(0, "s+t1")
	if !ok {
		t.Fatal("multi-table term not estimated")
	}
	// True distinct count of (7 + (1000..1099)) mod 13 is 13.
	if d < 1 || d > 200 {
		t.Errorf("multi-table GEE estimate %v implausible", d)
	}
	// The cross materialization respected its cap (500); base samples are
	// block-granular, at most one whole table (100 rows) each.
	if b.Produced() > 500+300 {
		t.Errorf("charged %v, cap violated", b.Produced())
	}
}

func TestCollectSamplingBudgetAbort(t *testing.T) {
	cat, q := fixture()
	ex := engine.New(cat).NewExec(engine.ExecConfig{})
	b := &engine.Budget{MaxTuples: 3}
	if _, err := CollectSampling(q, ex, b, randx.New(1)); err == nil {
		t.Error("tiny budget must abort sampling")
	}
}

func TestEndToEndPlansExecuteCorrectly(t *testing.T) {
	// All planners' trees must produce the same result on the real engine.
	cat, q := fixture()
	st := CollectFullStats(q, cat)
	dv := &cost.Deriver{Q: q, St: st.Clone(), Miss: cost.DefaultMiss(0.1)}
	dpTree, err := BestPlan(q, dv)
	if err != nil {
		t.Fatal(err)
	}
	gTree, err := GreedyPlan(q, st)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	eng1 := engine.New(cat).NewExec(engine.ExecConfig{})
	rel1, _, err := eng1.ExecTree(q, dpTree, &engine.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	eng2 := engine.New(cat).NewExec(engine.ExecConfig{})
	rel2, _, err := eng2.ExecTree(q, gTree, &engine.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	counts["dp"], counts["greedy"] = rel1.Count(), rel2.Count()
	if counts["dp"] != counts["greedy"] {
		t.Errorf("plans disagree: %v", counts)
	}
}
