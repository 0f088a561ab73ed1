package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// TestJoinTableEntrySize pins the bytes a join table spends per distinct key:
// a hash, a 24-byte key and two row indices. A field added to entry or to
// value.Value shows up here before it shows up as build-side memory.
func TestJoinTableEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 40 {
		t.Errorf("unsafe.Sizeof(entry{}) = %d, want 40", got)
	}
}

// cloneRows copies rows value by value, so that a later write into the
// memory the originals share shows up as a difference.
func cloneRows(rows []table.Row) []table.Row {
	out := make([]table.Row, len(rows))
	for i, r := range rows {
		out[i] = append(table.Row(nil), r...)
	}
	return out
}

func checkTightRows(t *testing.T, at string, rows []table.Row) {
	t.Helper()
	for i, r := range rows {
		if cap(r) != len(r) {
			t.Fatalf("%s: row %d has len %d, cap %d: an append could reach the next row", at, i, len(r), cap(r))
		}
	}
}

// TestRowLifetime pins who may keep a joined row: the rows of a root relation
// and of a collected build side come out of slabs the join never writes
// again before Release, so they read the same after the pipeline has pulled
// every further batch and after later trees have run on the same Exec — at
// every batch size and worker count — and no row has room for an append to
// reach a neighbour. Release then ends all of them: with the poison hook on,
// every one reads the sentinel, so every slab behind them went back.
func TestRowLifetime(t *testing.T) {
	defer func(was bool) { poisonReleased = was }(poisonReleased)
	poisonReleased = true
	cat := matrixCatalog(1)
	q := query.NewBuilder("abc").Rel("a", "A").Rel("b", "B").Rel("c", "C").
		Join(expr.Identity("a.k"), expr.Identity("b.k")).
		Join(expr.Identity("c.k"), expr.Identity("a.k")).
		MustBuild()
	rightDeep := plan.NewJoin(leaf("c"), plan.NewJoin(leaf("a"), leaf("b")))
	leftDeep := plan.NewJoin(plan.NewJoin(leaf("a"), leaf("b")), leaf("c"))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, batch := range []int{0, 1, 7, 1 << 30} {
		for _, par := range []int{1, 4} {
			runtime.GOMAXPROCS(par)
			at := fmt.Sprintf("BatchSize %d GOMAXPROCS %d", batch, par)
			ex := New(cat).NewExec(ExecConfig{testBatch: batch})

			// Drain the right-deep tree by hand, keeping every row header the
			// way the root materialize does, beside a copy taken on arrival.
			res := &ExecResult{Counts: map[string]float64{}, Times: map[string]time.Duration{}}
			it, _, err := ex.open(q, rightDeep, &Budget{}, res, nil, true)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			build := it.inner.(*joinIter).build // a⋈b's output, collected
			buildWas := cloneRows(build)
			var held, heldWas []table.Row
			for {
				b, err := it.Next()
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if b == nil {
					break
				}
				held = append(held, b...)
				heldWas = append(heldWas, cloneRows(b)...)
			}
			it.Close(nil)
			if len(build) == 0 || len(held) == 0 {
				t.Fatalf("%s: %d build rows, %d output rows: nothing to pin", at, len(build), len(held))
			}

			rel, _, err := ex.ExecTree(q, leftDeep, &Budget{})
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			relWas := cloneRows(rel.Rows)
			rel2, _, err := ex.ExecTree(q, rightDeep, &Budget{})
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			roots := map[string][]table.Row{"root relation": rel.Rows, "second run": rel2.Rows}
			headersWere := map[string][]table.Row{}
			for what, rows := range roots {
				headersWere[what] = append([]table.Row(nil), rows...)
			}

			for _, c := range []struct {
				what      string
				rows, was []table.Row
			}{
				{"collected build side", build, buildWas},
				{"rows kept from drained batches", held, heldWas},
				{"root relation after a second ExecTree", rel.Rows, relWas},
				{"second run of the same tree", rel2.Rows, heldWas},
			} {
				if !table.IdenticalRows(c.rows, c.was) {
					t.Errorf("%s: %s changed after it was handed out", at, c.what)
				}
				checkTightRows(t, at+": "+c.what, c.rows)
			}

			ex.Release()
			for what, rows := range map[string][]table.Row{"build side": build, "kept rows": held, "root relation": rel.Rows, "second run": rel2.Rows} {
				for i, r := range rows {
					if !value.Identical(r[0], poisonValue) {
						t.Fatalf("%s: %s row %d reads %v after Release, not the poison: its slab was not given back", at, what, i, r)
					}
				}
			}
			// The root relations' row headers are poisoned themselves, not
			// only the slabs under them: each now points at a row of the
			// sentinel, so a stale read of a header buffer that went on to
			// another query cannot see that query's rows.
			for what, rows := range roots {
				for i, r := range rows {
					if unsafe.SliceData(r) == unsafe.SliceData(headersWere[what][i]) {
						t.Fatalf("%s: %s row %d still points into its slab after Release: its header was not poisoned", at, what, i)
					}
					for j, v := range r {
						if !value.Identical(v, poisonValue) {
							t.Fatalf("%s: %s row %d column %d reads %v after Release, not the poison", at, what, i, j, v)
						}
					}
				}
			}
		}
	}

	// A streaming join's batch lives until the next Next and no longer:
	// when that Next outgrows the header buffer the batch sits in, the
	// buffer goes back to the free list at once, poisoned, in a process
	// that releases, as the Release calls above made this one. L's first
	// row matches one row of R and its second a hundred, so at one worker
	// the first pull emits one row into a header buffer of one, and the
	// second outgrows it.
	runtime.GOMAXPROCS(1)
	rkeys := []value.Value{value.Int(1)}
	for range 100 {
		rkeys = append(rkeys, value.Int(2))
	}
	lr := table.NewCatalog()
	lr.Put(keyedRows("L", []value.Value{value.Int(1), value.Int(2)}))
	lr.Put(keyedRows("R", rkeys))
	ql := query.NewBuilder("lr").Rel("l", "L").Rel("r", "R").
		Join(expr.Identity("l.k"), expr.Identity("r.k")).MustBuild()
	ex := New(lr).NewExec(ExecConfig{testBatch: 1})
	res := &ExecResult{Counts: map[string]float64{}, Times: map[string]time.Duration{}}
	it, _, err := ex.open(ql, plan.NewJoin(leaf("l"), leaf("r")), &Budget{}, res, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	first, err := it.Next()
	if err != nil || len(first) != 1 || !value.Identical(first[0][0], value.Int(1)) {
		t.Fatalf("streaming join's first batch: %v, %v; want the one row of key 1", first, err)
	}
	if second, err := it.Next(); err != nil || len(second) != 100 {
		t.Fatalf("streaming join's second batch: %d rows, %v; want 100", len(second), err)
	}
	for j, v := range first[0] {
		if !value.Identical(v, poisonValue) {
			t.Errorf("the first batch, read after the second Next outgrew its header buffer: column %d reads %v, not the poison", j, v)
		}
	}
	it.Close(nil)
	ex.Release()
}

// TestMaxTuplesTripsOnTheSameTuple: with one worker a tuple budget stops
// every operator on exactly the charge that exceeds it, so Budget.Produced()
// after the abort is a fixed number — the ones below were read off the engine
// before Charge became a single atomic add. Operators that charge a row at a
// time stop at MaxTuples + 1; an unfiltered scan charges a slab at once.
func TestMaxTuplesTripsOnTheSameTuple(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cross := query.NewBuilder("cross").Rel("R", "R").Rel("T", "T").
		Select(expr.SumMod("R.b", "T.k", 97), value.Int(5)).
		MustBuild()
	sel := query.NewBuilder("sel").Rel("R", "R").
		Select(expr.Identity("R.b"), value.Int(3)).
		MustBuild()
	for _, tc := range []struct {
		name string
		q    *query.Query
		tree *plan.Node
		max  float64
		want float64
	}{
		{"filter scan", sel, leaf("R"), 40, 41},
		{"unfiltered scan", rstQuery(), leaf("R"), 10, 1000},
		{"hash probe", rstQuery(), plan.NewJoin(leaf("R"), leaf("S")), 1200, 1201},
		{"hash probe under a join", rstQuery(), plan.NewJoin(plan.NewJoin(leaf("R"), leaf("S")), leaf("T")), 1400, 1401},
		{"nested loop", cross, plan.NewJoin(leaf("R"), leaf("T")), 1100, 1101},
		{"sigma pass", rstQuery(), leaf("S").WithSigma(), 70, 71},
	} {
		for _, batch := range []int{0, 7} {
			e := New(fixture()).NewExec(ExecConfig{testBatch: batch})
			b := &Budget{MaxTuples: tc.max}
			_, _, err := e.ExecTree(tc.q, tc.tree, b)
			if !errors.Is(err, ErrBudget) {
				t.Errorf("%s BatchSize %d: err = %v, want ErrBudget", tc.name, batch, err)
			}
			if got := b.Produced(); got != tc.want {
				t.Errorf("%s BatchSize %d: stopped at Produced() = %v, want %v", tc.name, batch, got, tc.want)
			}
		}
	}
}

// chargeCatalog holds tables whose kernels emit more rows than runMargin: N
// has 100,000 rows whose k cycles through 0..999 and whose c is 0, M has
// 1,000 rows keyed 0..999, P has 300 keyed 0..299.
func chargeCatalog() *table.Catalog {
	cat := table.NewCatalog()
	for _, tc := range []struct {
		name string
		rows int
		mod  int64
	}{{"N", 100_000, 1000}, {"M", 1000, 1000}, {"P", 300, 300}} {
		b := table.NewBuilder(tc.name, table.NewSchema(
			table.Column{Table: tc.name, Name: "k", Kind: value.KindInt},
			table.Column{Table: tc.name, Name: "c", Kind: value.KindInt},
		))
		for i := 0; i < tc.rows; i++ {
			b.Add(value.Int(int64(i)%tc.mod), value.Int(0))
		}
		cat.Put(b.Build())
	}
	return cat
}

// TestChargeRunsStayExact: kernels charge the rows they emit in runs, and
// that changes no total and no trip point. Each of the four kernels that
// charge per row starts under a MaxTuples more than runMargin above what the
// tree has charged so far, so it opens runs, and emits past the bound, so it
// hands over to charging row by row on the way: at one worker Produced()
// must still stop at exactly MaxTuples + 1. And a clean run charges exactly
// the objects its operators produced, at GOMAXPROCS 1, 2 and 7, with no
// tuple bound and with the bound set to that very total.
func TestChargeRunsStayExact(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cat := chargeCatalog()
	id := expr.Identity
	sel := query.NewBuilder("sel").Rel("n", "N").Select(id("n.c"), value.Int(0)).MustBuild()
	mn := query.NewBuilder("mn").Rel("m", "M").Rel("n", "N").Join(id("m.k"), id("n.k")).MustBuild()
	pq := query.NewBuilder("pq").Rel("p", "P").Rel("q", "P").MustBuild()
	mnp := query.NewBuilder("mnp").Rel("m", "M").Rel("n", "N").Rel("p", "P").
		Join(id("m.k"), id("n.k")).Join(id("n.k"), id("p.k")).MustBuild()
	cases := []struct {
		name       string
		q          *query.Query
		tree       *plan.Node
		start, max float64 // charged when the kernel starts; the bound, 0 for a clean run only
	}{
		// 100,000 rows kept.
		{"filter scan", sel, leaf("n"), 0, 70_000},
		// The build side's 100,000 and the probe side's 1,000, then 100,000
		// joined rows.
		{"hash probe", mn, plan.NewJoin(leaf("m"), leaf("n")), 101_000, 170_000},
		// 300 and 300 scanned, then 90,000 pairs, every one emitted.
		{"nested loop", pq, plan.NewJoin(leaf("p"), leaf("q")), 600, 70_000},
		// 100,000 scanned, then the Σ pass over them.
		{"sigma pass", mn, leaf("n").WithSigma(), 100_000, 170_000},
		{"streaming probe", mnp, plan.NewJoin(plan.NewJoin(leaf("m"), leaf("n")), leaf("p")), 0, 0},
	}
	for _, tc := range cases {
		if tc.max == 0 {
			continue
		}
		if tc.start+runMargin > tc.max {
			t.Fatalf("%s: the kernel starts within runMargin of the bound and never opens a run", tc.name)
		}
		b := &Budget{MaxTuples: tc.max}
		_, _, err := New(cat).NewExec(ExecConfig{}).ExecTree(tc.q, tc.tree, b)
		if !errors.Is(err, ErrBudget) {
			t.Errorf("%s: err = %v, want ErrBudget", tc.name, err)
		}
		if got := b.Produced(); got != tc.max+1 {
			t.Errorf("%s: stopped at Produced() = %v, want %v", tc.name, got, tc.max+1)
		}
	}
	for _, tc := range cases {
		var want float64
		for _, par := range []int{1, 2, 7} {
			runtime.GOMAXPROCS(par)
			for _, bound := range []bool{false, true} {
				b := &Budget{}
				if bound {
					b.MaxTuples = want
				}
				_, res, err := New(cat).NewExec(ExecConfig{}).ExecTree(tc.q, tc.tree, b)
				if err != nil {
					t.Fatalf("%s GOMAXPROCS %d MaxTuples %v: %v", tc.name, par, b.MaxTuples, err)
				}
				if want == 0 {
					want = res.Produced
				}
				if b.Produced() != res.Produced || res.Produced != want {
					t.Errorf("%s GOMAXPROCS %d MaxTuples %v: charged %v for %v objects produced, want %v",
						tc.name, par, b.MaxTuples, b.Produced(), res.Produced, want)
				}
			}
		}
	}
}

// TestDeadlineStopsUnproductiveKernels: the three kernels that can run long
// without charging a tuple — a probe that matches nothing, a build over NULL
// keys, a nested loop that rejects every pair — see an expired deadline
// within one polling quantum plus one stride of rows.
func TestDeadlineStopsUnproductiveKernels(t *testing.T) {
	const rows, limit = 20000, 1<<pollQuantum + pollStride
	expired := func() *Budget { return &Budget{Deadline: time.Now().Add(-time.Second)} }
	seq := make([]value.Value, rows)
	nulls := make([]value.Value, rows)
	for i := range seq {
		seq[i] = value.Int(int64(i))
	}
	probe, build := keyedRows("P", seq), keyedRows("B", []value.Value{value.Int(-1)})
	pb, _ := expr.Identity("P.k").Bind(probe.Schema)
	e := New(table.NewCatalog()).NewExec(ExecConfig{})

	ht, _, err := e.build(nil, build.Rows, firstColKey, nil, 1, &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	st := &joinState{pb: pb, width: 4}
	if err := st.probeRows(probe.Rows, build.Rows, ht, expired()); !errors.Is(err, ErrBudget) || st.in > limit {
		t.Errorf("matchless probe: err = %v after %d rows, want ErrBudget within %d", err, st.in, limit)
	}

	seen := 0
	_, ins, err := e.build(nil, keyedRows("N", nulls).Rows, func() keyFn {
		return func(row table.Row) (value.Value, uint64) { seen++; return row[0], 0 }
	}, nil, 1, expired())
	if !errors.Is(err, ErrBudget) || seen > limit || ins != 0 {
		t.Errorf("all-NULL build: err = %v after %d rows (%d inserted), want ErrBudget within %d", err, seen, ins, limit)
	}

	never, _ := expr.Identity("B.k").Bind(probe.Schema.Concat(build.Schema))
	st = &joinState{residuals: []residual{{sb: never, k: value.Int(-2)}}, width: 4}
	if err := st.loopRows(probe.Rows, build.Rows, expired()); !errors.Is(err, ErrBudget) || st.in > limit {
		t.Errorf("all-rejecting nested loop: err = %v after %d pairs, want ErrBudget within %d", err, st.in, limit)
	}

	// Without a deadline the same kernels run to the end and charge nothing.
	b := &Budget{}
	st = &joinState{pb: pb, width: 4}
	if err := st.probeRows(probe.Rows, build.Rows, ht, b); err != nil || st.in != rows || b.Produced() != 0 {
		t.Errorf("matchless probe without a deadline: err = %v, %d rows, produced %v", err, st.in, b.Produced())
	}
}

// TestProbeAllocationCeiling is the gate on the join's emit path: rows are
// carved off slabs, so a probe that emits 10,000 rows may allocate at most
// once per hundred of them (it does once per 256, plus nothing once the
// output buffer has grown).
func TestProbeAllocationCeiling(t *testing.T) {
	keys := make([]value.Value, 1000)
	for i := range keys {
		keys[i] = value.Int(int64(i % 100))
	}
	probe, build := keyedRows("P", keys), keyedRows("B", keys)
	pb, _ := expr.Identity("P.k").Bind(probe.Schema)
	e := New(table.NewCatalog()).NewExec(ExecConfig{})
	ht, _, err := e.build(nil, build.Rows, firstColKey, nil, 1, &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	st := &joinState{pb: pb, width: 4}
	budget := &Budget{}
	allocs := testing.AllocsPerRun(10, func() {
		if err := st.probeRows(probe.Rows, build.Rows, ht, budget); err != nil {
			t.Fatal(err)
		}
	})
	const matches = 10000
	if len(st.out) != matches {
		t.Fatalf("probe emitted %d rows, want %d", len(st.out), matches)
	}
	t.Logf("%v allocations for %d emitted rows", allocs, matches)
	if allocs > matches/100 {
		t.Errorf("probe allocated %v times for %d emitted rows, ceiling %d", allocs, matches, matches/100)
	}
}

// lpsCatalog is tpch-q9's l ⋈ ps in miniature: PS holds 800 parts with four
// suppliers each out of 40, so a supplier's chain is 80 rows long and a
// (part, supplier) pair is one row; L holds 6,000 lines of which nine in ten
// name a pair PS has, and a few have no part at all.
func lpsCatalog() *table.Catalog {
	cat := table.NewCatalog()
	pb := table.NewBuilder("PS", table.NewSchema(
		table.Column{Table: "PS", Name: "part", Kind: value.KindInt},
		table.Column{Table: "PS", Name: "supp", Kind: value.KindInt},
	))
	for p := 0; p < 800; p++ {
		for c := 0; c < 4; c++ {
			pb.Add(value.Int(int64(p)), value.Int(int64((p+10*c)%40)))
		}
	}
	cat.Put(pb.Build())
	lb := table.NewBuilder("L", table.NewSchema(
		table.Column{Table: "L", Name: "part", Kind: value.KindInt},
		table.Column{Table: "L", Name: "supp", Kind: value.KindInt},
	))
	for i := 0; i < 6000; i++ {
		p := i * 7 % 800
		part, supp := value.Int(int64(p)), (p+10*(i%4))%40
		switch {
		case i%10 == 9:
			supp = (supp + 1) % 40 // a supplier that does not carry the part
		case i%97 == 0:
			part = value.Null()
		}
		lb.Add(part, value.Int(int64(supp)))
	}
	cat.Put(lb.Build())
	return cat
}

// lpsRun joins L with PS on both columns, the two predicates in the given
// order, through identity terms that count their evaluations: evals[0..3] are
// those of L.supp, PS.supp, L.part and PS.part.
func lpsRun(t *testing.T, cat *table.Catalog, partFirst bool) (rows []table.Row, evals [4]int64) {
	t.Helper()
	var n [4]atomic.Int64
	counted := func(i int, attr string) *expr.UDF {
		return &expr.UDF{Name: "counted", Args: []string{attr}, Fn: func(args []value.Value) value.Value {
			n[i].Add(1)
			return args[0]
		}}
	}
	b := query.NewBuilder("lps").Rel("l", "L").Rel("ps", "PS")
	if partFirst {
		b = b.Join(counted(2, "l.part"), counted(3, "ps.part")).Join(counted(0, "l.supp"), counted(1, "ps.supp"))
	} else {
		b = b.Join(counted(0, "l.supp"), counted(1, "ps.supp")).Join(counted(2, "l.part"), counted(3, "ps.part"))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rel, _, err := New(cat).NewExec(ExecConfig{}).ExecTree(b.MustBuild(), plan.NewJoin(leaf("l"), leaf("ps")), &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		evals[i] = n[i].Load()
	}
	return rel.Rows, evals
}

// TestMultiKeyJoinWorkCount is the deterministic form of what the second key
// predicate saves. The table is keyed on the supplier, whose chains are 80
// rows long; the part predicate's build term is evaluated once per build row
// for the filter hash and then only on pairs whose filter hashes agree, which
// are the pairs the join emits — not once per probe and chain row, which
// was 80 times as many.
func TestMultiKeyJoinWorkCount(t *testing.T) {
	cat := lpsCatalog()
	rows, evals := lpsRun(t, cat, false)
	build, emitted := int64(cat.MustGet("PS").Count()), int64(len(rows))
	if emitted < 5000 {
		t.Fatalf("the join emitted %d rows, the fixture promises more than 5,000", emitted)
	}
	residual := evals[3] - build
	t.Logf("%d rows emitted, PS.part evaluated %d times: %d build rows + %d pairs put to the residual", emitted, evals[3], build, residual)
	if residual < emitted || residual > emitted+emitted/100 {
		t.Errorf("the part predicate was evaluated on %d pairs for %d emitted rows, want the emitted rows and at most 1 %% more", residual, emitted)
	}
}

// TestJoinPredicateOrderIndependence: which of two key predicates a query
// names first decides what the table is keyed on and nothing a client sees —
// the same rows in the same order — nor, within a factor of two, how many
// term evaluations the join costs.
func TestJoinPredicateOrderIndependence(t *testing.T) {
	cat := lpsCatalog()
	suppRows, suppEvals := lpsRun(t, cat, false)
	partRows, partEvals := lpsRun(t, cat, true)
	if !table.IdenticalRows(suppRows, partRows) {
		t.Errorf("the join returns different rows, or another order, with its predicates swapped (%d and %d rows)", len(suppRows), len(partRows))
	}
	total := func(e [4]int64) (n int64) {
		for _, x := range e {
			n += x
		}
		return n
	}
	a, b := total(suppEvals), total(partEvals)
	t.Logf("term evaluations: %d keyed on the supplier %v, %d keyed on the part %v", a, suppEvals, b, partEvals)
	if a > 2*b || b > 2*a {
		t.Errorf("%d term evaluations keyed on the supplier, %d keyed on the part: more than a factor of two apart", a, b)
	}
}

// TestHashBuildSpanKeyTerms: the build span says how many of the join's
// predicates are key predicates, once per join; the further ones count among
// the residuals as well, which is where they are decided.
func TestHashBuildSpanKeyTerms(t *testing.T) {
	id := expr.Identity
	one := query.NewBuilder("one").Rel("l", "L").Rel("ps", "PS").
		Join(id("l.supp"), id("ps.supp")).MustBuild()
	two := query.NewBuilder("two").Rel("l", "L").Rel("ps", "PS").
		Join(id("l.supp"), id("ps.supp")).Join(id("ps.part"), id("l.part")).
		Select(expr.SumMod("l.part", "ps.supp", 2), value.Int(0)).MustBuild()
	for _, tc := range []struct {
		q                   *query.Query
		keyTerms, residuals float64
	}{{one, 1, 0}, {two, 2, 2}} {
		col := &obs.Collector{}
		ex := New(lpsCatalog()).NewExec(ExecConfig{Obs: obs.NewTracer(col)})
		if _, _, err := ex.ExecTree(tc.q, plan.NewJoin(leaf("l"), leaf("ps")), &Budget{}); err != nil {
			t.Fatal(err)
		}
		builds := col.SpansOf(obs.KHashBuild)
		if len(builds) != 1 {
			t.Fatalf("%s: %d hash-build spans, want 1", tc.q.Name, len(builds))
		}
		if got := builds[0].Num; got["key_terms"] != tc.keyTerms || got["residuals"] != tc.residuals {
			t.Errorf("%s: build span says key_terms=%v residuals=%v, want %v and %v",
				tc.q.Name, got["key_terms"], got["residuals"], tc.keyTerms, tc.residuals)
		}
	}
}
