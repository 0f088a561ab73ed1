package engine

import (
	"errors"
	"math"
	"testing"
	"time"

	"monsoon/internal/expr"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/stats"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// fixture builds a tiny R/S/T catalog:
//
//	R: 1000 rows, R.a = i%100 (100 distinct), R.b = i%10 (10 distinct)
//	S: 50 rows, S.k = i%100   (50 distinct keys 0..49)
//	T: 20 rows, T.k = i%10    (10 distinct keys 0..9)
func fixture() *table.Catalog {
	cat := table.NewCatalog()
	rs := table.NewSchema(
		table.Column{Table: "R", Name: "a", Kind: value.KindInt},
		table.Column{Table: "R", Name: "b", Kind: value.KindInt},
	)
	rb := table.NewBuilder("R", rs)
	for i := 0; i < 1000; i++ {
		rb.Add(value.Int(int64(i%100)), value.Int(int64(i%10)))
	}
	cat.Put(rb.Build())
	ss := table.NewSchema(table.Column{Table: "S", Name: "k", Kind: value.KindInt})
	sb := table.NewBuilder("S", ss)
	for i := 0; i < 50; i++ {
		sb.Add(value.Int(int64(i % 100)))
	}
	cat.Put(sb.Build())
	ts := table.NewSchema(table.Column{Table: "T", Name: "k", Kind: value.KindInt})
	tb := table.NewBuilder("T", ts)
	for i := 0; i < 20; i++ {
		tb.Add(value.Int(int64(i % 10)))
	}
	cat.Put(tb.Build())
	return cat
}

func rstQuery() *query.Query {
	return query.NewBuilder("rst").
		Rel("R", "R").Rel("S", "S").Rel("T", "T").
		Join(expr.Identity("R.a"), expr.Identity("S.k")).
		Join(expr.Identity("R.b"), expr.Identity("T.k")).
		MustBuild()
}

func leaf(names ...string) *plan.Node { return plan.NewLeaf(query.NewAliasSet(names...)) }

func TestHashJoinCorrectness(t *testing.T) {
	e := New(fixture()).NewExec(ExecConfig{})
	q := rstQuery()
	// R ⋈ S on a=k: R.a in 0..99 uniform (10 each); S.k in 0..49 one each.
	// Matches: for each of S's 50 keys, 10 R rows → 500 rows.
	rel, res, err := e.ExecTree(q, plan.NewJoin(leaf("R"), leaf("S")), &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Count() != 500 {
		t.Errorf("R⋈S count = %d, want 500", rel.Count())
	}
	// Produced = c(R) + c(S) + c(R⋈S).
	if res.Produced != 1000+50+500 {
		t.Errorf("Produced = %v, want 1550", res.Produced)
	}
	if res.Counts["R+S"] != 500 || res.Counts["R"] != 1000 || res.Counts["S"] != 50 {
		t.Errorf("Counts = %v", res.Counts)
	}
	// Verify actual row contents: every joined row must satisfy the predicate.
	ai := rel.Schema.MustLookup("R.a")
	ki := rel.Schema.MustLookup("S.k")
	for _, row := range rel.Rows {
		if !row[ai].Equal(row[ki]) {
			t.Fatalf("join produced non-matching row: %v vs %v", row[ai], row[ki])
		}
	}
}

func TestJoinCommutativity(t *testing.T) {
	q := rstQuery()
	e1, e2 := New(fixture()).NewExec(ExecConfig{}), New(fixture()).NewExec(ExecConfig{})
	a, _, err := e1.ExecTree(q, plan.NewJoin(leaf("R"), leaf("S")), &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := e2.ExecTree(q, plan.NewJoin(leaf("S"), leaf("R")), &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Count() != b.Count() {
		t.Errorf("commutativity violated: %d vs %d", a.Count(), b.Count())
	}
}

func TestThreeWayJoinOrderInvariance(t *testing.T) {
	q := rstQuery()
	counts := map[string]int{}
	for _, tree := range []*plan.Node{
		plan.NewJoin(plan.NewJoin(leaf("R"), leaf("S")), leaf("T")),
		plan.NewJoin(plan.NewJoin(leaf("R"), leaf("T")), leaf("S")),
		plan.NewJoin(leaf("T"), plan.NewJoin(leaf("S"), leaf("R"))),
	} {
		e := New(fixture()).NewExec(ExecConfig{})
		rel, _, err := e.ExecTree(q, tree, &Budget{})
		if err != nil {
			t.Fatal(err)
		}
		counts[tree.String()] = rel.Count()
	}
	first := -1
	for k, c := range counts {
		if first == -1 {
			first = c
		}
		if c != first {
			t.Errorf("join order changed the result: %v (%s)", counts, k)
		}
	}
	// R⋈S = 500 rows; each has R.b matching 2 T rows (T.k has each key
	// twice) → 1000.
	if first != 1000 {
		t.Errorf("full join count = %d, want 1000", first)
	}
}

func TestCrossProductViaNestedLoop(t *testing.T) {
	// S × T has no connecting predicate: the engine must fall back to a
	// nested loop producing |S|·|T| rows.
	q := rstQuery()
	e := New(fixture()).NewExec(ExecConfig{})
	rel, _, err := e.ExecTree(q, plan.NewJoin(leaf("S"), leaf("T")), &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Count() != 50*20 {
		t.Errorf("S×T = %d, want 1000", rel.Count())
	}
}

func TestSelectionPushdown(t *testing.T) {
	q := query.NewBuilder("sel").
		Rel("R", "R").Rel("S", "S").
		Join(expr.Identity("R.a"), expr.Identity("S.k")).
		Select(expr.Identity("R.b"), value.Int(3)).
		MustBuild()
	e := New(fixture()).NewExec(ExecConfig{})
	rel, res, err := e.ExecTree(q, leaf("R"), &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Count() != 100 { // b==3 on 1000 rows with 10 values
		t.Errorf("filtered R = %d, want 100", rel.Count())
	}
	if res.Produced != 100 {
		t.Errorf("Produced = %v, want 100 (filter outputs only)", res.Produced)
	}
	bi := rel.Schema.MustLookup("R.b")
	for _, row := range rel.Rows {
		if row[bi].AsInt() != 3 {
			t.Fatal("selection not applied")
		}
	}
}

func TestMaterializedReuse(t *testing.T) {
	q := rstQuery()
	e := New(fixture()).NewExec(ExecConfig{})
	if _, _, err := e.ExecTree(q, plan.NewJoin(leaf("R"), leaf("S")), &Budget{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Materialized("R+S"); !ok {
		t.Fatal("root must be registered after execution")
	}
	// A later tree referencing [R+S] must reuse the registered relation.
	rel, res, err := e.ExecTree(q, plan.NewJoin(leaf("R", "S"), leaf("T")), &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Count() != 1000 {
		t.Errorf("([R+S]⋈T) = %d, want 1000", rel.Count())
	}
	// Produced = c(R+S) reuse pass + c(T) + c(out).
	if res.Produced != 500+20+1000 {
		t.Errorf("Produced = %v, want 1520", res.Produced)
	}
}

func TestUnmaterializedLeafFails(t *testing.T) {
	q := rstQuery()
	e := New(fixture()).NewExec(ExecConfig{})
	_, _, err := e.ExecTree(q, leaf("R", "S"), &Budget{})
	if err == nil {
		t.Error("unmaterialized multi-alias leaf must error")
	}
}

func TestSigmaCollection(t *testing.T) {
	q := rstQuery()
	e := New(fixture()).NewExec(ExecConfig{})
	rel, res, err := e.ExecTree(q, leaf("R").WithSigma(), &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Count() != 1000 {
		t.Fatalf("Σ(R) result = %d", rel.Count())
	}
	// Terms over R: id(R.a) (term 0) and id(R.b) (term 2).
	got := map[int]float64{}
	for _, o := range res.Sigma {
		if o.Expr != "R" {
			t.Errorf("sigma expr = %q", o.Expr)
		}
		got[o.Term] = o.D
	}
	if len(got) != 2 {
		t.Fatalf("sigma terms = %v", got)
	}
	if math.Abs(got[0]-100) > 5 {
		t.Errorf("d(R.a) = %v, want ~100", got[0])
	}
	if math.Abs(got[2]-10) > 1 {
		t.Errorf("d(R.b) = %v, want ~10", got[2])
	}
	// Σ adds one extra pass: Produced = 1000 (scan out) + 1000 (Σ pass).
	if res.Produced != 2000 {
		t.Errorf("Produced = %v, want 2000", res.Produced)
	}
	if res.SigmaTime < 0 {
		t.Error("SigmaTime must be measured")
	}
}

func TestSigmaSkipsNulls(t *testing.T) {
	cat := table.NewCatalog()
	ds := table.NewSchema(table.Column{Table: "D", Name: "txt", Kind: value.KindString})
	db := table.NewBuilder("D", ds)
	db.Add(value.String(`id="x1" end`))
	db.Add(value.String(`id="x2" end`))
	db.Add(value.String(`no markers`)) // Between yields NULL
	cat.Put(db.Build())
	es := table.NewSchema(table.Column{Table: "E", Name: "n", Kind: value.KindString})
	eb := table.NewBuilder("E", es)
	eb.Add(value.String("x1"))
	cat.Put(eb.Build())
	q := query.NewBuilder("nulls").
		Rel("D", "D").Rel("E", "E").
		Join(expr.Between("D.txt", `id="`, `" end`), expr.Identity("E.n")).
		MustBuild()
	e := New(cat).NewExec(ExecConfig{})
	_, res, err := e.ExecTree(q, leaf("D").WithSigma(), &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Sigma {
		if o.Term == 0 && math.Abs(o.D-2) > 0.5 {
			t.Errorf("NULLs must not count as distinct values: d = %v, want 2", o.D)
		}
	}
}

func TestNullKeysNeverJoin(t *testing.T) {
	cat := table.NewCatalog()
	ds := table.NewSchema(table.Column{Table: "D", Name: "txt", Kind: value.KindString})
	db := table.NewBuilder("D", ds)
	db.Add(value.String("garbage")) // City → NULL
	db.Add(value.String("garbage"))
	cat.Put(db.Build())
	es := table.NewSchema(table.Column{Table: "E", Name: "c", Kind: value.KindString})
	eb := table.NewBuilder("E", es)
	eb.Add(value.String("garbage"))
	cat.Put(eb.Build())
	q := query.NewBuilder("nulljoin").
		Rel("D", "D").Rel("E", "E").
		Join(expr.City("D.txt"), expr.City("E.c")).
		MustBuild()
	e := New(cat).NewExec(ExecConfig{})
	rel, _, err := e.ExecTree(q, plan.NewJoin(leaf("D"), leaf("E")), &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Count() != 0 {
		t.Errorf("NULL = NULL must not match, got %d rows", rel.Count())
	}
}

func TestMultiTableUDFResidual(t *testing.T) {
	// WHERE SumMod(s.k, t1.k, 7) = id(t2.k): the left term spans two aliases,
	// so it only becomes evaluable after s×t1; the final join with t2 uses it
	// as a hash key. Verify against a brute-force computation.
	q := query.NewBuilder("multi").
		Rel("s", "S").Rel("t1", "T").Rel("t2", "T").
		Join(expr.SumMod("s.k", "t1.k", 7), expr.Identity("t2.k")).
		MustBuild()
	e := New(fixture()).NewExec(ExecConfig{})
	tree := plan.NewJoin(plan.NewJoin(leaf("s"), leaf("t1")), leaf("t2"))
	rel, _, err := e.ExecTree(q, tree, &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	sTab := fixture().MustGet("S")
	tTab := fixture().MustGet("T")
	want := 0
	for _, sr := range sTab.Rows {
		for _, t1r := range tTab.Rows {
			for _, t2r := range tTab.Rows {
				if (sr[0].AsInt()+t1r[0].AsInt())%7 == t2r[0].AsInt() {
					want++
				}
			}
		}
	}
	if rel.Count() != want {
		t.Errorf("multi-table UDF join = %d, want %d", rel.Count(), want)
	}
	// The same result must arrive when the crossing term is a pure residual:
	// join s with (t1⋈t2)? t1-t2 have no predicate either; use the flipped
	// shape (s×t1) built right-deep instead.
	e2 := New(fixture()).NewExec(ExecConfig{})
	tree2 := plan.NewJoin(leaf("t2"), plan.NewJoin(leaf("s"), leaf("t1")))
	rel2, _, err := e2.ExecTree(q, tree2, &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Count() != want {
		t.Errorf("flipped multi-table UDF join = %d, want %d", rel2.Count(), want)
	}
}

func TestBudgetTupleCap(t *testing.T) {
	q := rstQuery()
	e := New(fixture()).NewExec(ExecConfig{})
	b := &Budget{MaxTuples: 100}
	_, _, err := e.ExecTree(q, plan.NewJoin(leaf("R"), leaf("S")), b)
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestBudgetDeadline(t *testing.T) {
	q := rstQuery()
	e := New(fixture()).NewExec(ExecConfig{})
	b := &Budget{Deadline: time.Now().Add(-time.Second)}
	// The deadline is polled every 1,024 charges; a 500-output join fits under
	// one poll, so use the bigger three-way join.
	tree := plan.NewJoin(plan.NewJoin(leaf("R"), leaf("S")), leaf("T"))
	_, _, err := e.ExecTree(q, tree, b)
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestBudgetProducedTracksResult(t *testing.T) {
	q := rstQuery()
	e := New(fixture()).NewExec(ExecConfig{})
	b := &Budget{}
	_, res, err := e.ExecTree(q, plan.NewJoin(leaf("R"), leaf("S")), b)
	if err != nil {
		t.Fatal(err)
	}
	if b.Produced() != res.Produced {
		t.Errorf("budget %v != result %v", b.Produced(), res.Produced)
	}
	var nb *Budget
	if nb.Produced() != 0 || nb.Charge(5) != nil {
		t.Error("nil budget must be a no-op")
	}
}

func TestSeedBaseStats(t *testing.T) {
	q := rstQuery()
	e := New(fixture())
	st := stats.New()
	e.SeedBaseStats(q, st)
	for alias, want := range map[string]float64{"R": 1000, "S": 50, "T": 20} {
		if c, ok := st.Count(stats.RawKey(alias)); !ok || c != want {
			t.Errorf("raw count %s = %v,%v", alias, c, ok)
		}
	}
}

func TestFinalAggregate(t *testing.T) {
	q := rstQuery()
	e := New(fixture()).NewExec(ExecConfig{})
	rel, _, err := e.ExecTree(q, plan.NewJoin(leaf("R"), leaf("S")), &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := FinalAggregate(q, rel); err != nil || got != 500 {
		t.Errorf("COUNT = %v, %v", got, err)
	}
	sumQ := query.NewBuilder("sum").
		Rel("R", "R").Rel("S", "S").
		Join(expr.Identity("R.a"), expr.Identity("S.k")).
		Sum("R.a").MustBuild()
	got, err := FinalAggregate(sumQ, rel)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	ai := rel.Schema.MustLookup("R.a")
	for _, row := range rel.Rows {
		want += row[ai].AsFloat()
	}
	if got != want {
		t.Errorf("SUM = %v, want %v", got, want)
	}
	if _, err := FinalAggregate(query.NewBuilder("bad").Rel("R", "R").Sum("R.zzz").MustBuild(), rel); err == nil {
		t.Error("SUM over missing attribute must error")
	}
}

// TestReleaseDropsMaterialized: Release empties the scope's Re store and
// leaves the scope usable — the same tree runs again to the same rows.
func TestReleaseDropsMaterialized(t *testing.T) {
	q := rstQuery()
	tree := plan.NewJoin(leaf("R"), leaf("S"))
	e := New(fixture()).NewExec(ExecConfig{})
	rel, _, err := e.ExecTree(q, tree, &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	want := cloneRows(rel.Rows)
	e.Release()
	if _, ok := e.Materialized("R+S"); ok {
		t.Error("Release must drop materialized state")
	}
	again, _, err := e.ExecTree(q, tree, &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !table.IdenticalRows(again.Rows, want) {
		t.Error("the tree run again after Release returns other rows")
	}
}

// Property: on random data, hash join output equals brute force.
func TestHashJoinAgainstBruteForce(t *testing.T) {
	rng := randx.New(99)
	for trial := 0; trial < 20; trial++ {
		cat := table.NewCatalog()
		mk := func(name string, n int, dom int64) *table.Relation {
			s := table.NewSchema(table.Column{Table: name, Name: "k", Kind: value.KindInt})
			b := table.NewBuilder(name, s)
			for i := 0; i < n; i++ {
				b.Add(value.Int(rng.Int63n(dom)))
			}
			return b.Build()
		}
		a := mk("A", 30+rng.Intn(50), 1+rng.Int63n(20))
		bb := mk("B", 30+rng.Intn(50), 1+rng.Int63n(20))
		cat.Put(a)
		cat.Put(bb)
		q := query.NewBuilder("rand").
			Rel("A", "A").Rel("B", "B").
			Join(expr.Identity("A.k"), expr.Identity("B.k")).
			MustBuild()
		e := New(cat).NewExec(ExecConfig{})
		rel, _, err := e.ExecTree(q, plan.NewJoin(leaf("A"), leaf("B")), &Budget{})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, ra := range a.Rows {
			for _, rb := range bb.Rows {
				if ra[0].Equal(rb[0]) {
					want++
				}
			}
		}
		if rel.Count() != want {
			t.Fatalf("trial %d: hash join = %d, brute force = %d", trial, rel.Count(), want)
		}
	}
}
