package engine

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// bigFixture builds a catalog large enough to cross the engine's
// parallelMinRows threshold on both the scan and the probe side:
//
//	BR: 30000 rows, BR.a = i%1500 (1500 distinct), BR.b = i%7
//	BS: 9000 rows,  BS.k = i%1500 (1500 distinct)
func bigFixture() *table.Catalog {
	cat := table.NewCatalog()
	rs := table.NewSchema(
		table.Column{Table: "BR", Name: "a", Kind: value.KindInt},
		table.Column{Table: "BR", Name: "b", Kind: value.KindInt},
	)
	rb := table.NewBuilder("BR", rs)
	for i := 0; i < 30000; i++ {
		rb.Add(value.Int(int64(i%1500)), value.Int(int64(i%7)))
	}
	cat.Put(rb.Build())
	ss := table.NewSchema(table.Column{Table: "BS", Name: "k", Kind: value.KindInt})
	sb := table.NewBuilder("BS", ss)
	for i := 0; i < 9000; i++ {
		sb.Add(value.Int(int64(i % 1500)))
	}
	cat.Put(sb.Build())
	return cat
}

func bigQuery() *query.Query {
	return query.NewBuilder("big").
		Rel("BR", "BR").Rel("BS", "BS").
		Join(expr.Identity("BR.a"), expr.Identity("BS.k")).
		Select(expr.Identity("BR.b"), value.Int(3)).
		MustBuild()
}

// TestSerialParallelIdentical is the determinism gate for the parallel
// execution path: a serial run (Parallelism = 1) and a parallel run must
// produce bit-identical relations (row order included), identical hardened
// counts and Σ sketch estimates, and identical budget totals.
func TestSerialParallelIdentical(t *testing.T) {
	cat := bigFixture()
	q := bigQuery()
	tree := plan.NewJoin(leaf("BR"), leaf("BS")).WithSigma()

	run := func(par int) (*table.Relation, *ExecResult, float64) {
		e := New(cat)
		e.Parallelism = par
		b := &Budget{}
		rel, res, err := e.ExecTree(q, tree, b)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return rel, res, b.Produced()
	}
	srel, sres, sprod := run(1)
	for _, par := range []int{0, 2, 3, 8} {
		prel, pres, pprod := run(par)
		if prel.Count() != srel.Count() {
			t.Fatalf("parallelism %d: %d rows, serial %d", par, prel.Count(), srel.Count())
		}
		if !reflect.DeepEqual(prel.Rows, srel.Rows) {
			t.Fatalf("parallelism %d: row content or order differs from serial", par)
		}
		if !reflect.DeepEqual(pres.Counts, sres.Counts) {
			t.Errorf("parallelism %d: counts %v, serial %v", par, pres.Counts, sres.Counts)
		}
		if pres.Produced != sres.Produced || pprod != sprod {
			t.Errorf("parallelism %d: produced %v/%v, serial %v/%v",
				par, pres.Produced, pprod, sres.Produced, sprod)
		}
		if !reflect.DeepEqual(pres.Sigma, sres.Sigma) {
			t.Errorf("parallelism %d: Σ observations %v, serial %v", par, pres.Sigma, sres.Sigma)
		}
	}
}

// TestParallelSpansCarryWorkers pins the span-stream contract of the parallel
// path: scan, hash-build, hash-probe, nested-loop, and Σ spans report the
// worker count, rows in/out identical to the serial run, and the span
// sequence itself is unchanged.
func TestParallelSpansCarryWorkers(t *testing.T) {
	cat := bigFixture()
	q := bigQuery()
	tree := plan.NewJoin(leaf("BR"), leaf("BS")).WithSigma()

	trace := func(par int) *obs.Collector {
		col := &obs.Collector{}
		e := New(cat)
		e.Parallelism = par
		e.Obs = obs.NewTracer(col)
		if _, _, err := e.ExecTree(q, tree, &Budget{}); err != nil {
			t.Fatal(err)
		}
		return col
	}
	ser, p := trace(1), trace(4)
	// The parallel stream additionally carries one KWorker span per fan-out
	// worker (the one machine-dependent kind); set those aside and demand the
	// remaining operator stream match the serial one span-for-span.
	var pOps []*obs.Span
	workersByParent := make(map[int]int)
	for _, sp := range p.Spans {
		if sp.Kind == obs.KWorker {
			workersByParent[sp.Parent]++
			continue
		}
		pOps = append(pOps, sp)
	}
	for _, ssp := range ser.Spans {
		if ssp.Kind == obs.KWorker {
			t.Fatalf("serial run emitted a %s span", obs.KWorker)
		}
	}
	if len(ser.Spans) != len(pOps) {
		t.Fatalf("span count changed: serial %d, parallel %d (workers excluded)", len(ser.Spans), len(pOps))
	}
	sawWorkers := 0
	for i, psp := range pOps {
		ssp := ser.Spans[i]
		if psp.Kind != ssp.Kind || psp.RowsIn != ssp.RowsIn || psp.RowsOut != ssp.RowsOut {
			t.Errorf("span %d: parallel %s %d/%d vs serial %s %d/%d",
				i, psp.Kind, psp.RowsIn, psp.RowsOut, ssp.Kind, ssp.RowsIn, ssp.RowsOut)
		}
		if w, ok := psp.Num["workers"]; ok {
			sawWorkers++
			if w < 2 {
				t.Errorf("span %d (%s): workers attribute %v, want >= 2", i, psp.Kind, w)
			}
			switch psp.Kind {
			case obs.KScan, obs.KHashBuild, obs.KHashProbe, obs.KNestedLoop, obs.KSigma:
			default:
				t.Errorf("span %d: workers attribute on unexpected kind %s", i, psp.Kind)
			}
			// The fan-out must be visible in the span tree too. Streaming
			// operators fan out once per large-enough batch (the "workers"
			// attribute records only the first fan-out's width), so the
			// KWorker spans parented here must match the operator's
			// accumulated worker_spans total, and there is at least one
			// fan-out of the advertised width.
			total := int(psp.Num["worker_spans"])
			if got := workersByParent[psp.ID]; got != total || total < int(w) {
				t.Errorf("span %d (%s): %d worker spans, worker_spans says %d (workers %v)",
					i, psp.Kind, got, total, w)
			}
			delete(workersByParent, psp.ID)
		}
	}
	for parent, n := range workersByParent {
		t.Errorf("%d worker spans parented to span %d, which carries no workers attribute", n, parent)
	}
	if sawWorkers == 0 {
		t.Error("no span carried a workers attribute; parallel path never engaged")
	}
	for _, ssp := range ser.Spans {
		if _, ok := ssp.Num["workers"]; ok {
			t.Errorf("serial span %s carries a workers attribute", ssp.Kind)
		}
	}
}

// TestParallelBudgetAbort: a tuple budget trips the parallel path with
// ErrBudget exactly as it does the serial one.
func TestParallelBudgetAbort(t *testing.T) {
	cat := bigFixture()
	q := bigQuery()
	tree := plan.NewJoin(leaf("BR"), leaf("BS"))
	for _, par := range []int{1, 4} {
		e := New(cat)
		e.Parallelism = par
		_, _, err := e.ExecTree(q, tree, &Budget{MaxTuples: 1000})
		if !errors.Is(err, ErrBudget) {
			t.Errorf("parallelism %d: err = %v, want ErrBudget", par, err)
		}
	}
}

// TestSplitRows: the partitioner covers [0,n) exactly once, in order.
func TestSplitRows(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{10, 3}, {4096, 4}, {7, 7}, {5, 1}, {1024, 2}} {
		parts := splitRows(tc.n, tc.w)
		if len(parts) != tc.w {
			t.Fatalf("splitRows(%d,%d): %d parts", tc.n, tc.w, len(parts))
		}
		next := 0
		for _, p := range parts {
			if p[0] != next || p[1] < p[0] {
				t.Fatalf("splitRows(%d,%d): bad range %v at offset %d", tc.n, tc.w, p, next)
			}
			next = p[1]
		}
		if next != tc.n {
			t.Fatalf("splitRows(%d,%d): covered %d rows", tc.n, tc.w, next)
		}
	}
}

// TestWorkersKnob pins the knob semantics: 1 is serial, 0 defaults to the
// machine width, small inputs never fan out, and chunks stay meaningful.
func TestWorkersKnob(t *testing.T) {
	e := New(table.NewCatalog())
	e.Parallelism = 1
	if w := e.exec().workers(1 << 20); w != 1 {
		t.Errorf("Parallelism 1: workers = %d", w)
	}
	e.Parallelism = 8
	if w := e.exec().workers(100); w != 1 {
		t.Errorf("tiny input: workers = %d, want 1", w)
	}
	if w := e.exec().workers(parallelMinRows); w < 2 || w > parallelMinRows/parallelMinChunk {
		t.Errorf("threshold input: workers = %d", w)
	}
	e.Parallelism = 0
	if w := e.exec().workers(1 << 20); w < 1 {
		t.Errorf("default parallelism: workers = %d", w)
	}
}

// TestNestedLoopSpanReportsPairs pins the nested-loop span's rows-in to the
// number of row pairs actually scanned (the full cross product), not the sum
// of the input sizes — per-operator throughput derived from the span stream
// depends on it.
func TestNestedLoopSpanReportsPairs(t *testing.T) {
	cat := fixture()
	// R ⋈ T with no separating predicate: SumMod crosses both aliases, so
	// the engine must fall back to a nested loop over 1000×20 pairs.
	q := query.NewBuilder("cross").
		Rel("R", "R").Rel("T", "T").
		Select(expr.SumMod("R.b", "T.k", 97), value.Int(5)).
		MustBuild()
	col := &obs.Collector{}
	e := New(cat)
	e.Obs = obs.NewTracer(col)
	if _, _, err := e.ExecTree(q, plan.NewJoin(leaf("R"), leaf("T")), &Budget{}); err != nil {
		t.Fatal(err)
	}
	nls := col.SpansOf(obs.KNestedLoop)
	if len(nls) != 1 {
		t.Fatalf("nested-loop spans = %d, want 1", len(nls))
	}
	if nls[0].RowsIn != 1000*20 {
		t.Errorf("nested-loop rows-in = %d, want %d pairs scanned", nls[0].RowsIn, 1000*20)
	}
}

// buildFixture returns a relation with interleaved NULL keys and the key
// source of the join term that binds its key column, for driving build
// directly.
func buildFixture(rows int) (*table.Relation, func() keyFn) {
	ns := table.NewSchema(table.Column{Table: "N", Name: "x", Kind: value.KindInt})
	nb := table.NewBuilder("N", ns)
	for i := 0; i < rows; i++ {
		if i%5 == 3 {
			nb.Add(value.Null())
		} else {
			nb.Add(value.Int(int64(i % 97)))
		}
	}
	ms := table.NewSchema(table.Column{Table: "M", Name: "y", Kind: value.KindInt})
	mb := table.NewBuilder("M", ms)
	mb.Add(value.Int(0))
	cat := table.NewCatalog()
	cat.Put(nb.Build())
	cat.Put(mb.Build())
	q := query.NewBuilder("n").
		Rel("N", "N").Rel("M", "M").
		Join(expr.Identity("N.x"), expr.Identity("M.y")).
		MustBuild()
	rel := nb.Build()
	return rel, evalKey(q.Joins[0].L, rel.Schema)
}

// referenceBuild is the trivially-auditable build the engine's one routine
// must reproduce exactly: one pass in row order, routed into s sub-tables.
func referenceBuild(rows []table.Row, keyOf func() keyFn, s int) (*shardedTable, int) {
	key := keyOf()
	t := newShardedTable(s, len(rows))
	inserted := 0
	for i, row := range rows {
		k, h := key(i, row)
		if k.IsNull() {
			continue
		}
		inserted++
		t.subs[h%uint64(s)].insertHash(h, k, i)
	}
	return t, inserted
}

// buildShape is one way a join hands rel to the build: the side and the key
// source that goes with it.
type buildShape struct {
	name  string
	side  buildSide
	keyOf func() keyFn
}

// buildShapes lists the shapes of rel for s sub-tables: rows in stored order
// and, at s > 1, the two co-partitioned ones — the stored table handed over
// with its layout, and a shard-major drain with per-shard bounds.
func buildShapes(rel *table.Relation, keyOf func() keyFn, s int) []buildShape {
	shapes := []buildShape{{"rows", buildSide{rows: rel.Rows}, keyOf}}
	if s > 1 {
		cat := table.NewCatalog()
		cat.Put(rel)
		cat.Shard(s)
		sh, _ := cat.ShardsOf(rel.Name)
		drained, bounds := shardMajor(rel, s)
		shapes = append(shapes,
			buildShape{"stored", buildSide{rows: rel.Rows, bounds: sh.Bounds, perm: sh.Perm}, storedKey(sh)},
			buildShape{"drained", buildSide{rows: drained.Rows, bounds: bounds}, keyOf})
	}
	return shapes
}

// TestParallelBuildIdenticalTable: the build yields a table deep-equal to
// the single-pass one — chain order, row order, NULL skipping — for worker
// counts below, at, and far above the row count, at every sub-table count,
// whether it splits the side into chunks and merges or at shard boundaries.
func TestParallelBuildIdenticalTable(t *testing.T) {
	e := New(table.NewCatalog()).exec()
	for _, rows := range []int{5000, 17} {
		rel, keyOf := buildFixture(rows)
		for _, s := range []int{1, 4} {
			for _, shape := range buildShapes(rel, keyOf, s) {
				want, wantIns := referenceBuild(shape.side.rows, keyOf, s)
				for _, w := range []int{1, 2, 7, 64} {
					at := fmt.Sprintf("rows=%d S=%d %s w=%d", rows, s, shape.name, w)
					ht, ins, err := e.build(nil, shape.side, shape.keyOf, s, w, &Budget{})
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if ins != wantIns {
						t.Errorf("%s: inserted %d, want %d", at, ins, wantIns)
					}
					if !reflect.DeepEqual(ht, want) {
						t.Errorf("%s: table differs from the single-pass build", at)
					}
				}
			}
		}
	}
}

// TestParallelBuildEmptySide: an empty build side merges to an empty table
// with zero insertions for any worker count.
func TestParallelBuildEmptySide(t *testing.T) {
	e := New(table.NewCatalog()).exec()
	rel, keyOf := buildFixture(0)
	for _, w := range []int{1, 2, 7, 64} {
		ht, ins, err := e.build(nil, buildSide{rows: rel.Rows}, keyOf, 1, w, &Budget{})
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if ins != 0 || len(ht.subs[0]) != 0 {
			t.Errorf("w=%d: inserted %d, table size %d, want empty", w, ins, len(ht.subs[0]))
		}
	}
}

// TestParallelBuildBudgetAbort: a tripped budget surfaces ErrBudget from the
// build at one worker and at several.
func TestParallelBuildBudgetAbort(t *testing.T) {
	e := New(table.NewCatalog()).exec()
	rel, keyOf := buildFixture(5000)
	for _, w := range []int{1, 4} {
		b := &Budget{}
		b.Deadline = time.Now().Add(-time.Second)
		if _, _, err := e.build(nil, buildSide{rows: rel.Rows}, keyOf, 1, w, b); !errors.Is(err, ErrBudget) {
			t.Errorf("w=%d: err = %v, want ErrBudget", w, err)
		}
	}
}

// crossFixture builds a pairs-heavy catalog with no separating predicate:
// CL × CR must run as a nested loop over enough pairs to engage the fan-out.
func crossFixture(leftRows, rightRows int) *table.Catalog {
	cat := table.NewCatalog()
	ls := table.NewSchema(table.Column{Table: "CL", Name: "a", Kind: value.KindInt})
	lb := table.NewBuilder("CL", ls)
	for i := 0; i < leftRows; i++ {
		lb.Add(value.Int(int64(i)))
	}
	cat.Put(lb.Build())
	rs := table.NewSchema(table.Column{Table: "CR", Name: "b", Kind: value.KindInt})
	rb := table.NewBuilder("CR", rs)
	for i := 0; i < rightRows; i++ {
		rb.Add(value.Int(int64(i)))
	}
	cat.Put(rb.Build())
	return cat
}

// TestNestedLoopSerialParallelIdentical: the fanned-out pairs scan matches
// the serial nested loop bit for bit — row order, pair count in the span,
// budget totals — with a crossing residual term and as a pure cross product.
func TestNestedLoopSerialParallelIdentical(t *testing.T) {
	cases := []struct {
		name string
		q    *query.Query
	}{
		{"residual", query.NewBuilder("resid").
			Rel("CL", "CL").Rel("CR", "CR").
			Select(expr.SumMod("CL.a", "CR.b", 13), value.Int(4)).
			MustBuild()},
		{"pure-cross", query.NewBuilder("cross").
			Rel("CL", "CL").Rel("CR", "CR").
			MustBuild()},
	}
	cat := crossFixture(300, 40)
	tree := plan.NewJoin(leaf("CL"), leaf("CR"))
	for _, tc := range cases {
		run := func(par int) (*table.Relation, float64, *obs.Span) {
			col := &obs.Collector{}
			e := New(cat)
			e.Parallelism = par
			e.Obs = obs.NewTracer(col)
			b := &Budget{}
			rel, _, err := e.ExecTree(tc.q, tree, b)
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", tc.name, par, err)
			}
			nls := col.SpansOf(obs.KNestedLoop)
			if len(nls) != 1 {
				t.Fatalf("%s parallelism %d: %d nested-loop spans", tc.name, par, len(nls))
			}
			return rel, b.Produced(), nls[0]
		}
		srel, sprod, ssp := run(1)
		for _, par := range []int{0, 2, 7, 64} {
			prel, pprod, psp := run(par)
			if !reflect.DeepEqual(prel.Rows, srel.Rows) {
				t.Errorf("%s parallelism %d: rows differ from serial", tc.name, par)
			}
			if pprod != sprod {
				t.Errorf("%s parallelism %d: produced %v, serial %v", tc.name, par, pprod, sprod)
			}
			if psp.RowsIn != ssp.RowsIn || psp.RowsOut != ssp.RowsOut {
				t.Errorf("%s parallelism %d: span %d/%d, serial %d/%d",
					tc.name, par, psp.RowsIn, psp.RowsOut, ssp.RowsIn, ssp.RowsOut)
			}
		}
	}
}

// TestNestedLoopTinyInputs: worker counts far above the outer cardinality
// degrade cleanly and stay bit-identical to serial.
func TestNestedLoopTinyInputs(t *testing.T) {
	cat := crossFixture(3, 2000)
	q := query.NewBuilder("tiny").Rel("CL", "CL").Rel("CR", "CR").MustBuild()
	tree := plan.NewJoin(leaf("CL"), leaf("CR"))
	run := func(par int) *table.Relation {
		e := New(cat)
		e.Parallelism = par
		rel, _, err := e.ExecTree(q, tree, &Budget{})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return rel
	}
	ref := run(1)
	if ref.Count() != 6000 {
		t.Fatalf("cross product produced %d rows, want 6000", ref.Count())
	}
	for _, par := range []int{2, 7, 64} {
		if got := run(par); !reflect.DeepEqual(got.Rows, ref.Rows) {
			t.Errorf("parallelism %d: rows differ from serial", par)
		}
	}
}
