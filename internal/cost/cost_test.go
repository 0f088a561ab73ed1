package cost

import (
	"math"
	"testing"

	"monsoon/internal/expr"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/stats"
	"monsoon/internal/value"
)

// sec23 builds the running example of §2.3 with its fixed statistics:
// c(R)=10^6, c(S)=c(T)=10^4, d(F1,R)=d(F3,R)=1000, and d(F2,S), d(F4,T)
// supplied by the caller as measured values.
func sec23(t *testing.T, d2, d4 float64) (*query.Query, *stats.Store) {
	t.Helper()
	q := query.NewBuilder("sec23").
		Rel("R", "R").Rel("S", "S").Rel("T", "T").
		Join(expr.HashMod("R.a", 1000), expr.Identity("S.k")). // F1(R)=F2(S), terms 0,1
		Join(expr.HashMod("R.b", 1000), expr.Identity("T.k")). // F3(R)=F4(T), terms 2,3
		MustBuild()
	st := stats.New()
	st.SetCount(stats.RawKey("R"), 1e6)
	st.SetCount(stats.RawKey("S"), 1e4)
	st.SetCount(stats.RawKey("T"), 1e4)
	st.SetMeasured(0, "R", 1000)
	st.SetMeasured(2, "R", 1000)
	if d2 > 0 {
		st.SetMeasured(1, "S", d2)
	}
	if d4 > 0 {
		st.SetMeasured(3, "T", d4)
	}
	return q, st
}

func leaf(names ...string) *plan.Node { return plan.NewLeaf(query.NewAliasSet(names...)) }

func set(names ...string) query.AliasSet { return query.NewAliasSet(names...) }

func TestJoinSizeFormula(t *testing.T) {
	if got := JoinSize(1e6, 1e4, 1000, 1); got != 1e7 {
		t.Errorf("JoinSize = %v, want 1e7", got)
	}
	if got := JoinSize(1e6, 1e4, 1000, 10000); got != 1e6 {
		t.Errorf("JoinSize = %v, want 1e6", got)
	}
	if got := JoinSize(10, 10, 0, 0); got != 100 {
		t.Errorf("JoinSize with zero d must clamp divisor to 1, got %v", got)
	}
}

func TestSelSize(t *testing.T) {
	if got := SelSize(100, 4); got != 25 {
		t.Errorf("SelSize = %v", got)
	}
	if got := SelSize(100, 0); got != 100 {
		t.Errorf("SelSize with d=0 must clamp, got %v", got)
	}
}

// TestTable1 reproduces Table 1 of the paper: intermediate tuple counts for
// the first join of each candidate plan under the four statistic scenarios.
func TestTable1(t *testing.T) {
	cases := []struct {
		d2, d4 float64
		wantRS float64 // c(R ⋈ S)
		wantRT float64 // c(R ⋈ T)
	}{
		{1, 1, 1e7, 1e7},
		{1, 10000, 1e7, 1e6},
		{10000, 1, 1e6, 1e7},
		{10000, 10000, 1e6, 1e6},
	}
	for _, c := range cases {
		q, st := sec23(t, c.d2, c.d4)
		dv := &Deriver{Q: q, St: st, Miss: PanicMiss()}
		rs := dv.NodeCount(plan.NewJoin(leaf("R"), leaf("S")))
		rt := dv.NodeCount(plan.NewJoin(leaf("R"), leaf("T")))
		if rs != c.wantRS {
			t.Errorf("d2=%v d4=%v: c(R⋈S) = %v, want %v", c.d2, c.d4, rs, c.wantRS)
		}
		if rt != c.wantRT {
			t.Errorf("d2=%v d4=%v: c(R⋈T) = %v, want %v", c.d2, c.d4, rt, c.wantRT)
		}
	}
}

func TestFullPlanCountsAndCost(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss()}
	tree := plan.NewJoin(plan.NewJoin(leaf("R"), leaf("S")), leaf("T"))
	// c(R⋈S) = 1e6; c((R⋈S)⋈T) = 1e6·1e4/max(1000,10000) = 1e6.
	if got := dv.NodeCount(tree); got != 1e6 {
		t.Errorf("final count = %v, want 1e6", got)
	}
	// §4.4 cost: every node's count summed: leaves (1e6+1e4+1e4) + 1e6 + 1e6.
	want := 1e6 + 1e4 + 1e4 + 1e6 + 1e6
	if got := dv.PlanCost(tree); got != want {
		t.Errorf("plan cost = %v, want %v", got, want)
	}
	// Σ adds one more pass over the root.
	if got := dv.PlanCost(tree.WithSigma()); got != want+1e6 {
		t.Errorf("Σ plan cost = %v, want %v", got, want+1e6)
	}
}

func TestBatchCost(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss()}
	sigmaS := leaf("S").WithSigma()
	rs := plan.NewJoin(leaf("R"), leaf("S"))
	got := dv.BatchCost([]*plan.Node{sigmaS, rs})
	// Σ(S): c(S) + c(S) = 2e4; (R⋈S): 1e6 + 1e6 + 1e4.
	want := 2e4 + (1e6 + 1e6 + 1e4)
	if got != want {
		t.Errorf("batch cost = %v, want %v", got, want)
	}
}

func TestBatchCostEmptyAndSingleton(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss()}
	if got := dv.BatchCost(nil); got != 0 {
		t.Errorf("batch cost of nil slice = %v, want 0", got)
	}
	if got := dv.BatchCost([]*plan.Node{}); got != 0 {
		t.Errorf("batch cost of empty slice = %v, want 0", got)
	}
	rs := plan.NewJoin(leaf("R"), leaf("S"))
	if got, want := dv.BatchCost([]*plan.Node{rs}), dv.PlanCost(rs); got != want {
		t.Errorf("singleton batch cost = %v, want PlanCost %v", got, want)
	}
}

func TestClampBounds(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 1, 10, 5},            // interior value passes through
		{0.5, 1, 10, 1},          // below range
		{50, 1, 10, 10},          // above range
		{1, 1, 10, 1},            // exactly at the lower bound
		{10, 1, 10, 10},          // exactly at the upper bound
		{math.Inf(1), 1, 10, 10}, // +Inf estimates collapse to the ceiling
		{math.Inf(-1), 1, 10, 1}, // -Inf to the floor
		{3, 2, 2, 2},             // degenerate range pins everything
	}
	for _, c := range cases {
		if got := clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("clamp(%v, %v, %v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestDefaultMissFraction(t *testing.T) {
	fn := DefaultMiss(0.1)
	// The fraction applies to the container's cardinality; the partner's is
	// deliberately ignored (the paper's Defaults rule is unconditional).
	if got := fn(nil, set("S"), set("R"), 1e4, 123); got != 1e3 {
		t.Errorf("DefaultMiss(0.1) over 1e4 = %v, want 1e3", got)
	}
	if got := fn(nil, set("S"), set("R"), 1e4, 1e9); got != 1e3 {
		t.Errorf("partner cardinality must not affect the rule, got %v", got)
	}
	// A zero fraction yields zero; the Deriver's [1, cExpr] clamp is what
	// keeps the derived distinct positive, not the rule itself.
	if got := DefaultMiss(0)(nil, set("S"), set("R"), 1e4, 1); got != 0 {
		t.Errorf("DefaultMiss(0) = %v, want raw 0 (caller clamps)", got)
	}
}

func TestPanicMissDirect(t *testing.T) {
	q, _ := sec23(t, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("PanicMiss must panic when invoked directly")
		}
	}()
	PanicMiss()(q.Joins[0].R, set("S"), set("R"), 1e4, 1e6)
}

func TestDistinctResolutionPreference(t *testing.T) {
	q, st := sec23(t, 10000, 0)
	dv := &Deriver{Q: q, St: st, Miss: DefaultMiss(0.1)}
	term := q.Joins[1].R // F4 over T, unmeasured
	// First resolution uses the Miss rule and records an assumption.
	d := dv.Distinct(term, set("T"), set("R"), 1e4, 1e6)
	if d != 1e3 {
		t.Errorf("missed distinct = %v, want 1e3 (0.1 of 1e4)", d)
	}
	if st.AssumedEntries() != 1 {
		t.Error("miss must be recorded as assumed")
	}
	// Same partner resolves from the recorded assumption (no second miss).
	dv.Miss = PanicMiss()
	if got := dv.Distinct(term, set("T"), set("R"), 1e4, 1e6); got != d {
		t.Errorf("assumed not reused: %v vs %v", got, d)
	}
	// Measuring overrides the assumption.
	st.SetMeasured(term.ID, "T", 42)
	if got := dv.Distinct(term, set("T"), set("R"), 1e4, 1e6); got != 42 {
		t.Errorf("measured must win, got %v", got)
	}
}

func TestDistinctMinimalAliasFallback(t *testing.T) {
	// A d measured over base S should inform a join where the child is a
	// superset expression containing S.
	q, st := sec23(t, 5000, 10000)
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss()}
	term := q.Joins[0].R // F2 over S, measured 5000 over "S"
	d := dv.Distinct(term, set("S", "T"), set("R"), 1e8, 1e6)
	if d != 5000 {
		t.Errorf("minimal-alias fallback = %v, want 5000", d)
	}
}

func TestDistinctClamping(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	st.SetMeasured(1, "S", 1e9) // absurd measurement, above c
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss()}
	if d := dv.Distinct(q.Joins[0].R, set("S"), set("R"), 1e4, 1e6); d != 1e4 {
		t.Errorf("distinct must be clamped to cExpr, got %v", d)
	}
	dv.Miss = DefaultMiss(0.1)
	if d := dv.Distinct(q.Joins[1].R, set("T"), set("R"), 0.5, 1e6); d != 1 {
		t.Errorf("distinct must be clamped to >= 1, got %v", d)
	}
}

func TestLeafWithSelection(t *testing.T) {
	q := query.NewBuilder("sel").
		Rel("R", "R").Rel("S", "S").
		Join(expr.Identity("R.k"), expr.Identity("S.k")).
		Select(expr.YearOf("R.d"), value.Int(1994)).
		MustBuild()
	st := stats.New()
	st.SetCount(stats.RawKey("R"), 1000)
	st.SetCount(stats.RawKey("S"), 100)
	st.SetMeasured(q.Sels[0].T.ID, "R", 10) // selection term measured
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss()}
	if got := dv.NodeCount(leaf("R")); got != 100 {
		t.Errorf("filtered leaf count = %v, want 100", got)
	}
	// Count is recorded, so a repeat lookup is stable.
	if c, ok := st.Count("R"); !ok || c != 100 {
		t.Error("leaf count must be recorded in the store")
	}
}

func TestMultiTableTermUsesUnionContainer(t *testing.T) {
	// WHERE SumMod(R.a, S.b) = id(T.k): the left term only becomes evaluable
	// at the join of {R,S} with nothing smaller; estimating (R×S)⋈T must
	// parameterize the prior on the product size.
	q := query.NewBuilder("multi").
		Rel("R", "R").Rel("S", "S").Rel("T", "T").
		Join(expr.SumMod("R.a", "S.b", 100), expr.Identity("T.k")).
		MustBuild()
	st := stats.New()
	st.SetCount(stats.RawKey("R"), 100)
	st.SetCount(stats.RawKey("S"), 200)
	st.SetCount(stats.RawKey("T"), 50)
	var sawExpr string
	var sawC float64
	dv := &Deriver{Q: q, St: st, Miss: func(t *query.Term, e, _ query.AliasSet, cExpr, _ float64) float64 {
		if t.Aliases.Size() > 1 {
			sawExpr, sawC = e.Key(), cExpr
		}
		return 100
	}}
	// In ((R⋈S)⋈T) the term {R,S} is contained in the left child.
	tree := plan.NewJoin(plan.NewJoin(leaf("R"), leaf("S")), leaf("T"))
	c := dv.NodeCount(tree)
	// R×S = 20000 (no predicate applies there); join with T: 20000·50/max(100,50).
	if c != 20000*50/100 {
		t.Errorf("count = %v, want %v", c, 20000.0*50/100)
	}
	if sawExpr != "R+S" || sawC != 20000 {
		t.Errorf("contained term container = %q c=%v, want R+S / 20000", sawExpr, sawC)
	}
	// In (R⋈(S×T)) the term {R,S} crosses the children and only becomes
	// evaluable over the joined expression: the prior is parameterized on the
	// product size.
	st2 := stats.New()
	st2.SetCount(stats.RawKey("R"), 100)
	st2.SetCount(stats.RawKey("S"), 200)
	st2.SetCount(stats.RawKey("T"), 50)
	dv.St = st2
	crossing := plan.NewJoin(leaf("R"), plan.NewJoin(leaf("S"), leaf("T")))
	c2 := dv.NodeCount(crossing)
	if c2 != 100*200*50/100 {
		t.Errorf("crossing count = %v, want %v", c2, 100.0*200*50/100)
	}
	if sawExpr != "R+S+T" || sawC != 100*200*50 {
		t.Errorf("crossing term container = %q c=%v, want R+S+T / 1e6", sawExpr, sawC)
	}
}

func TestLeafPanicsWithoutRawCount(t *testing.T) {
	q, _ := sec23(t, 1, 1)
	dv := &Deriver{Q: q, St: stats.New(), Miss: DefaultMiss(0.1)}
	defer func() {
		if recover() == nil {
			t.Error("missing raw count must panic")
		}
	}()
	dv.NodeCount(leaf("R"))
}

func TestMaterializedLeafPanicsWithoutCount(t *testing.T) {
	q, st := sec23(t, 1, 1)
	dv := &Deriver{Q: q, St: st, Miss: DefaultMiss(0.1)}
	defer func() {
		if recover() == nil {
			t.Error("materialized leaf without count must panic")
		}
	}()
	dv.NodeCount(leaf("R", "S"))
}

func TestPanicMiss(t *testing.T) {
	q, st := sec23(t, 0, 0) // F2, F4 unmeasured
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss()}
	defer func() {
		if recover() == nil {
			t.Error("PanicMiss must panic on a missing statistic")
		}
	}()
	dv.NodeCount(plan.NewJoin(leaf("R"), leaf("S")))
}

// Property: join-order independence of the derived final count — any order
// over the same alias set with the same hardened statistics yields the same
// cardinality (the invariant expression identity relies on).
func TestCountOrderIndependence(t *testing.T) {
	q, st := sec23(t, 10000, 1)
	orders := []*plan.Node{
		plan.NewJoin(plan.NewJoin(leaf("R"), leaf("S")), leaf("T")),
		plan.NewJoin(plan.NewJoin(leaf("R"), leaf("T")), leaf("S")),
		plan.NewJoin(leaf("T"), plan.NewJoin(leaf("S"), leaf("R"))),
	}
	var counts []float64
	for _, o := range orders {
		dv := &Deriver{Q: q, St: st.Clone(), Miss: PanicMiss()}
		counts = append(counts, dv.NodeCount(o))
	}
	for i := 1; i < len(counts); i++ {
		if math.Abs(counts[i]-counts[0]) > 1e-6*counts[0] {
			t.Errorf("order %d count %v != %v", i, counts[i], counts[0])
		}
	}
}
