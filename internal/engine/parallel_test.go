package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/randx"
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
// execution path: a serial run (GOMAXPROCS 1) and a parallel run must
// produce bit-identical relations (row order included), identical hardened
// counts and Σ sketch estimates, and identical budget totals.
func TestSerialParallelIdentical(t *testing.T) {
	cat := bigFixture()
	q := bigQuery()
	tree := plan.NewJoin(leaf("BR"), leaf("BS")).WithSigma()

	run := func(par int) (*table.Relation, *ExecResult, float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
		e := New(cat).NewExec(ExecConfig{})
		b := &Budget{}
		rel, res, err := e.ExecTree(q, tree, b)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", par, err)
		}
		return rel, res, b.Produced()
	}
	srel, sres, sprod := run(1)
	for _, par := range []int{0, 2, 3, 8} {
		prel, pres, pprod := run(par)
		if prel.Count() != srel.Count() {
			t.Fatalf("GOMAXPROCS %d: %d rows, serial %d", par, prel.Count(), srel.Count())
		}
		if !table.IdenticalRows(prel.Rows, srel.Rows) {
			t.Fatalf("GOMAXPROCS %d: row content or order differs from serial", par)
		}
		if !reflect.DeepEqual(pres.Counts, sres.Counts) {
			t.Errorf("GOMAXPROCS %d: counts %v, serial %v", par, pres.Counts, sres.Counts)
		}
		if pres.Produced != sres.Produced || pprod != sprod {
			t.Errorf("GOMAXPROCS %d: produced %v/%v, serial %v/%v",
				par, pres.Produced, pprod, sres.Produced, sprod)
		}
		if !reflect.DeepEqual(pres.Sigma, sres.Sigma) {
			t.Errorf("GOMAXPROCS %d: Σ observations %v, serial %v", par, pres.Sigma, sres.Sigma)
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
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
		e := New(cat).NewExec(ExecConfig{Obs: obs.NewTracer(col)})
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, par := range []int{1, 4} {
		runtime.GOMAXPROCS(par)
		e := New(cat).NewExec(ExecConfig{})
		_, _, err := e.ExecTree(q, tree, &Budget{MaxTuples: 1000})
		if !errors.Is(err, ErrBudget) {
			t.Errorf("GOMAXPROCS %d: err = %v, want ErrBudget", par, err)
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

// TestWorkersKnob pins the width rule: GOMAXPROCS 1 is serial, small inputs
// never fan out, and chunks stay meaningful.
func TestWorkersKnob(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := New(table.NewCatalog()).NewExec(ExecConfig{})
	if w := e.workers(1 << 20); w != 1 {
		t.Errorf("GOMAXPROCS 1: workers = %d", w)
	}
	runtime.GOMAXPROCS(8)
	if w := e.workers(100); w != 1 {
		t.Errorf("tiny input: workers = %d, want 1", w)
	}
	if w := e.workers(parallelMinRows); w < 2 || w > parallelMinRows/parallelMinChunk {
		t.Errorf("threshold input: workers = %d", w)
	}
	if w := e.workers(1 << 20); w != 8 {
		t.Errorf("GOMAXPROCS 8: workers = %d, want 8", w)
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
	e := New(cat).NewExec(ExecConfig{Obs: obs.NewTracer(col)})
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

// refBucket and refTable are the join table as it was before the flat
// open-addressing one: a Go map from key hash to a collision chain of
// buckets, each with its own row list. Kept as the trivially-auditable
// reference the engine's table must reproduce.
type refBucket struct {
	key  value.Value
	rows []int
}

type refTable map[uint64][]refBucket

// referenceBuild is one pass in row order: a row joins the first bucket of
// its hash's chain whose key equals its own, or opens a new bucket at the
// chain's end.
func referenceBuild(rows []table.Row, keyOf func() keyFn) (refTable, int) {
	key := keyOf()
	t := make(refTable)
	inserted := 0
rows:
	for i, row := range rows {
		k, h := key(row)
		if k.IsNull() {
			continue
		}
		inserted++
		for bi := range t[h] {
			if t[h][bi].key.Equal(k) {
				t[h][bi].rows = append(t[h][bi].rows, i)
				continue rows
			}
		}
		t[h] = append(t[h], refBucket{key: k, rows: []int{i}})
	}
	return t, inserted
}

// tableDump is a join table in canonical form: the distinct keys in
// first-occurrence order, each with its hash and ascending row list.
type tableDump []dumpEntry

type dumpEntry struct {
	hash uint64
	key  value.Value
	rows []int
}

// same compares two dumps entry by entry, keys by value.Identical.
func (d tableDump) same(o tableDump) bool {
	return slices.EqualFunc(d, o, func(x, y dumpEntry) bool {
		return x.hash == y.hash && value.Identical(x.key, y.key) && slices.Equal(x.rows, y.rows)
	})
}

// dump renders the reference. Buckets open in row order, so first-occurrence
// order is ascending first row — across hashes and within a chain alike.
func (t refTable) dump() tableDump {
	d := tableDump{}
	for h, chain := range t {
		for _, b := range chain {
			d = append(d, dumpEntry{h, b.key, b.rows})
		}
	}
	sort.Slice(d, func(a, b int) bool { return d[a].rows[0] < d[b].rows[0] })
	return d
}

// dump renders the engine's table as stored: entries in slice order, rows by
// following next from head, which must end at tail. It also checks that every
// entry is reachable from its home slot, behind the earlier entries of its
// hash only.
func (t *joinTable) dump(tb testing.TB) tableDump {
	d := tableDump{}
	for ei, e := range t.entries {
		de := dumpEntry{hash: e.hash, key: e.key}
		last := int32(-1)
		for bi := e.head; bi >= 0; bi = t.next[bi] {
			de.rows = append(de.rows, int(bi))
			last = bi
		}
		if last != e.tail {
			tb.Errorf("entry %d: chain ends at row %d, tail says %d", ei, last, e.tail)
		}
		d = append(d, de)
		prev := 0
		for s := t.home(e.hash); ; s = (s + 1) & (len(t.slots) - 1) {
			at := int(t.slots[s])
			if at == 0 {
				tb.Errorf("entry %d: not reachable from its home slot", ei)
				break
			}
			if at == ei+1 {
				break
			}
			if t.entries[at-1].hash == e.hash {
				if at < prev || at > ei {
					tb.Errorf("entry %d: same-hash entries out of insertion order along the probe sequence", ei)
				}
				prev = at
			}
		}
	}
	if 2*len(t.entries) > len(t.slots) {
		tb.Errorf("%d entries in %d slots, load above one half", len(t.entries), len(t.slots))
	}
	return d
}

// TestParallelBuildIdenticalTable: the build yields the table of the
// single-pass map-of-slices reference — the same keys in first-occurrence
// order, the same ascending row lists, NULLs skipped — for worker counts
// below, at, and far above the row count, chunks merged in worker order.
func TestParallelBuildIdenticalTable(t *testing.T) {
	e := New(table.NewCatalog()).NewExec(ExecConfig{})
	for _, rows := range []int{5000, 17} {
		rel, keyOf := buildFixture(rows)
		want, wantIns := referenceBuild(rel.Rows, keyOf)
		for _, w := range []int{1, 2, 7, 64} {
			at := fmt.Sprintf("rows=%d w=%d", rows, w)
			ht, ins, err := e.build(nil, rel.Rows, keyOf, nil, w, &Budget{})
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if ins != wantIns {
				t.Errorf("%s: inserted %d, want %d", at, ins, wantIns)
			}
			if !ht.dump(t).same(want.dump()) {
				t.Errorf("%s: table differs from the single-pass reference", at)
			}
		}
	}
}

// keyedRows makes a two-column relation over the given keys: the key and the
// row's position, which tells rows of one key apart in a joined row.
func keyedRows(name string, keys []value.Value) *table.Relation {
	sc := table.NewSchema(
		table.Column{Table: name, Name: "k", Kind: value.KindInt},
		table.Column{Table: name, Name: "i", Kind: value.KindInt},
	)
	rows := make([]table.Row, len(keys))
	for i, k := range keys {
		rows[i] = table.Row{k, value.Int(int64(i))}
	}
	return table.NewRelation(name, sc, rows)
}

// firstColKey is the key source of keyedRows: the first column, hashed.
func firstColKey() keyFn {
	return func(row table.Row) (value.Value, uint64) { return row[0], row[0].Hash() }
}

// referenceProbe joins probe rows against the reference table the way the
// engine always has: every bucket of the key's hash chain whose key equals
// the probe key, in chain order, its rows ascending — the whole chain walked,
// every pair joined and put to the residuals, whatever they are.
func referenceProbe(probe, build []table.Row, ref refTable, residuals ...residual) []table.Row {
	var out []table.Row
	for _, prow := range probe {
		k := prow[0]
		if k.IsNull() {
			continue
		}
		h := k.Hash()
		for _, b := range ref[h] {
			if !b.key.Equal(k) {
				continue
			}
			for _, bi := range b.rows {
				if row := append(append(table.Row{}, prow...), build[bi]...); passResiduals(row, residuals) {
					out = append(out, row)
				}
			}
		}
	}
	return out
}

// TestJoinTableProbesLikeReference drives build and probeRows over the key
// populations that stress an open-addressing table — distinct keys forced
// onto one hash or a few, int and float keys that compare equal, keys that
// equal a probe key without equalling each other, NULLs, an empty side,
// distinct keys that make the merge outgrow the first chunk's table — and
// demands the map-of-slices reference's table and, row for row, its probe
// output.
func TestJoinTableProbesLikeReference(t *testing.T) {
	ints := func(n int, f func(i int) int64) []value.Value {
		out := make([]value.Value, n)
		for i := range out {
			out[i] = value.Int(f(i))
		}
		return out
	}
	// hashOf(g) forces the hash of key group g(k) onto key k: keys of one
	// group collide in full, and the group's own key keeps its real hash, so
	// a probe finds it behind the others' entries.
	hashOf := func(g func(k int64) int64) func() keyFn {
		return func() keyFn {
			return func(row table.Row) (value.Value, uint64) {
				if row[0].IsNull() {
					return row[0], 0
				}
				return row[0], value.Int(g(row[0].AsInt())).Hash()
			}
		}
	}
	const big = int64(1) << 53
	mixed := []value.Value{
		value.Int(1), value.Float(1), value.Float(2.5), value.Null(), value.Int(2), value.Float(2),
		value.Bool(true), value.Float(2.5), value.String("1"), value.Int(1), value.Null(), value.Float(-0.5),
	}
	rng := randx.New(5)
	random := make([]value.Value, 6000)
	for i := range random {
		switch k := int64(rng.Intn(900)); rng.Intn(6) {
		case 0:
			random[i] = value.Null()
		case 1:
			random[i] = value.Float(float64(k))
		case 2:
			random[i] = value.Float(float64(k) + 0.5)
		default:
			random[i] = value.Int(k)
		}
	}
	cases := []struct {
		name         string
		build, probe []value.Value
		keyOf        func() keyFn
	}{
		{"one hash for 700 distinct keys", ints(5000, func(i int) int64 { return int64(i % 700) }),
			ints(40, func(i int) int64 { return int64(i % 20) }), hashOf(func(int64) int64 { return 0 })},
		{"eight hashes", ints(5000, func(i int) int64 { return int64(i*7) % 1000 }),
			ints(64, func(i int) int64 { return int64(i % 16) }), hashOf(func(k int64) int64 { return k % 8 })},
		{"int and float keys that compare equal", mixed, mixed, firstColKey},
		// Float(2^53) equals Int(2^53) and, after rounding, Int(2^53+1), which
		// do not equal each other: two entries of one hash answer one probe.
		{"keys equal to the probe but not to each other", []value.Value{value.Int(big), value.Int(big + 1), value.Int(big), value.Int(big + 1)},
			[]value.Value{value.Float(float64(big)), value.Int(big + 1)}, hashOf(func(int64) int64 { return big })},
		{"all NULL", []value.Value{value.Null(), value.Null(), value.Null()}, mixed, firstColKey},
		{"empty build side", nil, mixed, firstColKey},
		{"distinct keys outgrow the first chunk's table in the merge", ints(3000, func(i int) int64 { return int64(i) }),
			ints(600, func(i int) int64 { return int64(5 * i) }), firstColKey},
		{"random ints, floats and NULLs", random, random[:2000], firstColKey},
	}
	e := New(table.NewCatalog()).NewExec(ExecConfig{})
	for _, tc := range cases {
		build, probe := keyedRows("B", tc.build), keyedRows("P", tc.probe)
		pb, _ := expr.Identity("P.k").Bind(probe.Schema)
		ref, refIns := referenceBuild(build.Rows, tc.keyOf)
		want := referenceProbe(probe.Rows, build.Rows, ref)
		for _, w := range []int{1, 3} {
			at := fmt.Sprintf("%s w=%d", tc.name, w)
			ht, ins, err := e.build(nil, build.Rows, tc.keyOf, nil, w, &Budget{})
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if ins != refIns {
				t.Errorf("%s: inserted %d, want %d", at, ins, refIns)
			}
			if !ht.dump(t).same(ref.dump()) {
				t.Errorf("%s: table differs from the reference", at)
			}
			st := &joinState{pb: pb, width: 4}
			if err := st.probeRows(probe.Rows, build.Rows, ht, &Budget{}); err != nil {
				t.Fatalf("%s: probe: %v", at, err)
			}
			if len(st.out) != len(want) {
				t.Fatalf("%s: probe emitted %d rows, reference %d", at, len(st.out), len(want))
			}
			for i := range want {
				if !slices.EqualFunc(st.out[i], want[i], value.Identical) {
					t.Fatalf("%s: output row %d is %v, reference %v", at, i, st.out[i], want[i])
				}
			}
		}
	}
}

// keyRow is one row of a multi-key fixture: the first key and two columns for
// further key predicates to read.
type keyRow struct{ k, x, y value.Value }

// multiKeyRows makes a relation (k, i, x, y) over rows, i the row's position.
// The y column belongs to alias yOf: name itself, or a second alias when the
// relation stands for a materialized join of the two.
func multiKeyRows(name, yOf string, rows []keyRow) *table.Relation {
	sc := table.NewSchema(
		table.Column{Table: name, Name: "k", Kind: value.KindInt},
		table.Column{Table: name, Name: "i", Kind: value.KindInt},
		table.Column{Table: name, Name: "x", Kind: value.KindInt},
		table.Column{Table: yOf, Name: "y", Kind: value.KindInt},
	)
	out := make([]table.Row, len(rows))
	for i, r := range rows {
		out[i] = table.Row{r.k, value.Int(int64(i)), r.x, r.y}
	}
	return table.NewRelation(name, sc, out)
}

// TestMultiKeyProbesLikeReference pins a join with several key predicates to
// the reference that knows of one: the table is the single-key table, and the
// probe's output is, row for row, that of walking every chain in full and
// putting every pair to every further predicate as a residual. The further
// key terms cover what Equal does that Hash does not promise — an int against
// the float it equals, NULLs on either side, an int beyond 2⁵³ against the
// float it rounds to — strings, a term over two columns, three key
// predicates, a filter hash on which every row collides, and a second
// predicate that separates nothing and so stays a plain residual; at every
// worker count.
func TestMultiKeyProbesLikeReference(t *testing.T) {
	id := expr.Identity
	const big = int64(1) << 53
	mixed := []value.Value{
		value.Int(1), value.Int(2), value.Float(2), value.Null(), value.Float(2.5), value.Int(3),
		value.Bool(true), value.Float(math.Copysign(0, -1)), value.Int(0), value.Float(math.NaN()),
	}
	// gen draws n rows: first keys from a domain of keys (so chains are long),
	// x from xs, y from a small int domain.
	gen := func(seed int64, n, keys int, xs []value.Value) []keyRow {
		rng := randx.New(seed)
		out := make([]keyRow, n)
		for i := range out {
			out[i] = keyRow{value.Int(int64(rng.Intn(keys))), xs[rng.Intn(len(xs))], value.Int(int64(rng.Intn(4)))}
			if rng.Intn(25) == 0 {
				out[i].k = value.Null()
			}
		}
		return out
	}
	words := []value.Value{value.String("a"), value.String("b"), value.String(""), value.String("a\x00"), value.Null(), value.String("żółć")}
	small := []value.Value{value.Int(0), value.Int(1), value.Int(2), value.Int(3), value.Int(4), value.Null()}
	one := value.Int(1)
	cases := []struct {
		name         string
		build, probe []keyRow
		rest         func(b *query.Builder) *query.Builder // the predicates after P.k = B.k
		keyTerms     int                                   // key predicates pickHash must find
		collide      bool                                  // force one filter hash on every row
		reuse        bool                                  // the build child is a materialized B+C, y being C's
	}{
		{"ints, floats, NULLs and duplicates", gen(1, 900, 12, mixed), gen(2, 300, 12, mixed),
			func(b *query.Builder) *query.Builder { return b.Join(id("P.x"), id("B.x")) }, 2, false, false},
		{"second key written build side first", gen(1, 900, 12, mixed), gen(2, 300, 12, mixed),
			func(b *query.Builder) *query.Builder { return b.Join(id("B.x"), id("P.x")) }, 2, false, false},
		// Int(2^53+1) and Int(2^53) both equal Float(2^53) as a residual compares
		// them, and hash differently: both build rows must join both probes.
		{"ints beyond 2^53 against the float they round to",
			[]keyRow{{one, value.Int(big + 1), one}, {one, value.Int(big), one}, {one, value.Int(big + 2), one}, {one, value.Float(float64(big)), one}},
			[]keyRow{{one, value.Float(float64(big)), one}, {one, value.Int(big + 1), one}},
			func(b *query.Builder) *query.Builder { return b.Join(id("P.x"), id("B.x")) }, 2, false, false},
		{"strings", gen(3, 900, 12, words), gen(4, 300, 12, words),
			func(b *query.Builder) *query.Builder { return b.Join(expr.Lower("P.x"), id("B.x")) }, 2, false, false},
		{"a term over two columns", gen(5, 900, 12, small), gen(6, 300, 12, small),
			func(b *query.Builder) *query.Builder { return b.Join(id("P.x"), expr.SumMod("B.x", "B.y", 5)) }, 2, false, false},
		{"every filter hash collides", gen(1, 900, 12, mixed), gen(2, 300, 12, mixed),
			func(b *query.Builder) *query.Builder { return b.Join(id("P.x"), id("B.x")) }, 2, true, false},
		{"three key predicates", gen(7, 1500, 6, small), gen(8, 300, 6, small),
			func(b *query.Builder) *query.Builder {
				return b.Join(id("P.x"), id("B.x")).Join(id("B.y"), id("P.y"))
			}, 3, false, false},
		// SumMod(P.x, B.x) reads both children: the predicate is new at this
		// join and no key predicate, before a third that is one.
		{"a second predicate with a term that binds on neither child", gen(9, 900, 12, small), gen(10, 300, 12, small),
			func(b *query.Builder) *query.Builder {
				return b.Join(expr.SumMod("P.x", "B.x", 3), id("C.y")).Join(id("P.x"), id("B.x"))
			}, 2, false, true},
		{"no further key predicate, one plain residual", gen(9, 900, 12, small), gen(10, 300, 12, small),
			func(b *query.Builder) *query.Builder { return b.Join(expr.SumMod("P.x", "B.x", 3), id("C.y")) }, 1, false, true},
	}
	e := New(table.NewCatalog()).NewExec(ExecConfig{})
	for _, tc := range cases {
		b, right, yOf := query.NewBuilder("mk").Rel("P", "P").Rel("B", "B"), leaf("B"), "B"
		if tc.reuse {
			b, right, yOf = b.Rel("C", "C"), leaf("B", "C"), "C"
		}
		build, probe := multiKeyRows("B", yOf, tc.build), multiKeyRows("P", "P", tc.probe)
		q := tc.rest(b.Join(id("P.k"), id("B.k"))).MustBuild()
		tree := plan.NewJoin(leaf("P"), right)
		spec := &joinSpec{node: tree, left: probe.Schema, right: build.Schema, out: probe.Schema.Concat(build.Schema)}
		spec.pickHash(q.PredsNewAt(tree.Left.Aliases(), tree.Right.Aliases()))
		if got := 1 + len(spec.buildRest); got != tc.keyTerms || len(spec.probeRest) != len(spec.buildRest) {
			t.Fatalf("%s: pickHash found %d key predicates, want %d", tc.name, got, tc.keyTerms)
		}
		// The reference knows one key and treats everything else as a residual.
		var residuals []residual
		for _, p := range q.Joins[1:] {
			lb, ok1 := p.L.Fn.Bind(spec.out)
			rb, ok2 := p.R.Fn.Bind(spec.out)
			if !ok1 || !ok2 {
				t.Fatalf("%s: %s does not bind", tc.name, p)
			}
			residuals = append(residuals, residual{lb: lb, rb: rb})
		}
		var filterOf func() filterFn
		if tc.keyTerms > 1 {
			filterOf = keyFilter(spec.buildRest, build.Schema)
		}
		collide := func(table.Row) uint64 { return 7 }
		if tc.collide {
			filterOf = func() filterFn { return collide }
		}
		keyOf := evalKey(spec.buildTerm, build.Schema)
		ref, _ := referenceBuild(build.Rows, keyOf)
		want := referenceProbe(probe.Rows, build.Rows, ref, residuals...)
		for _, w := range []int{1, 2, 7} {
			at := fmt.Sprintf("%s w=%d", tc.name, w)
			ht, _, err := e.build(nil, build.Rows, keyOf, filterOf, w, &Budget{})
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if !ht.dump(t).same(ref.dump()) {
				t.Errorf("%s: table differs from the single-key reference", at)
			}
			if (ht.filter != nil) != (tc.keyTerms > 1) {
				t.Errorf("%s: filter slice present = %v with %d key predicates", at, ht.filter != nil, tc.keyTerms)
			}
			st, err := newJoinState(spec)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if tc.collide {
				st.pf = collide
			}
			if err := st.probeRows(probe.Rows, build.Rows, ht, &Budget{}); err != nil {
				t.Fatalf("%s: probe: %v", at, err)
			}
			if len(st.out) != len(want) {
				t.Fatalf("%s: probe emitted %d rows, reference %d", at, len(st.out), len(want))
			}
			for i := range want {
				if !slices.EqualFunc(st.out[i], want[i], value.Identical) {
					t.Fatalf("%s: output row %d is %v, reference %v", at, i, st.out[i], want[i])
				}
			}
		}
		if len(want) == 0 {
			t.Errorf("%s: the reference joins nothing, which proves nothing", tc.name)
		}
	}
}

// TestEqualHashFollowsEqual: whenever two values are Equal their filter
// hashes agree — the property that makes passing over a chain row on a hash
// mismatch exact — over every pair of an edge-case mix (value_test.go's,
// less the kind no constructor makes), where Value.Hash itself does not have
// it: Int(2^53+1) equals Float(2^53) and hashes as the integer it is.
func TestEqualHashFollowsEqual(t *testing.T) {
	parent := "  42 \x00 monsoon żółć 3.5e2  "
	vals := []value.Value{
		value.Null(), value.Bool(false), value.Bool(true),
		value.Int(0), value.Int(1), value.Int(-1), value.Int(math.MinInt64), value.Int(math.MaxInt64),
		value.Int(1<<53 - 1), value.Int(1 << 53), value.Int(1<<53 + 1),
		value.Float(1<<53 - 1), value.Float(1 << 53), value.Float(1<<53 + 2),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(math.Inf(1)), value.Float(math.Inf(-1)), value.Float(math.NaN()),
		value.Float(1), value.Float(-7), value.Float(0.5), value.Float(-2.75), value.Float(3.9), value.Float(1e300),
		value.Float(math.MaxInt64), value.Float(math.MinInt64), value.Float(math.SmallestNonzeroFloat64),
		value.String(""), value.String("a"), value.String("b"), value.String("a\x00"), value.String("\x00"), value.String("żółć"),
		value.String(parent), value.String(parent[2:4]), value.String(parent[:6]), value.String(parent[len(parent):]),
		value.String(" 42 "), value.String("42"), value.String("1"), value.String("NULL"), value.String("true"),
		value.IntList(nil), value.IntList([]int64{}), value.IntList([]int64{7}), value.IntList([]int64{1, 2}), value.IntList([]int64{1, 3}),
		value.IntList([]int64{3, 1, 2, 3, 1}), value.IntList([]int64{5, 5, 5, 5}),
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 40; i++ {
		x := int64(rng.Uint64())
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		vals = append(vals, value.Int(x), value.Float(math.Float64frombits(uint64(x))), value.Float(float64(x>>20)),
			value.Int(x>>20), value.String(string(b)), value.IntList([]int64{x, x >> 7, int64(i)}))
	}
	equal, hashDiffers := 0, 0
	for _, a := range vals {
		for _, b := range vals {
			if !a.Equal(b) {
				continue
			}
			equal++
			if equalHash(a) != equalHash(b) {
				t.Errorf("%v (%s) Equal %v (%s), filter hashes %#x and %#x", a, a.Kind(), b, b.Kind(), equalHash(a), equalHash(b))
			}
			if a.Hash() != b.Hash() {
				hashDiffers++
			}
		}
	}
	if equal < len(vals)/2 || hashDiffers == 0 {
		t.Errorf("%d Equal pairs, %d of them with different Value.Hash: the mix misses the case the filter hash exists for", equal, hashDiffers)
	}
	// One term's hash carries over to the row's: a NULL term is 0, nothing else is.
	sc := table.NewSchema(table.Column{Table: "T", Name: "x", Kind: value.KindInt})
	q := query.NewBuilder("t").Rel("T", "T").Rel("U", "U").Join(expr.Identity("T.x"), expr.Identity("U.x")).MustBuild()
	f := keyFilter([]*query.Term{q.Joins[0].L}, sc)()
	for _, v := range vals {
		if got := f(table.Row{v}); (got == 0) != v.IsNull() {
			t.Errorf("filter hash of a row holding %v is %#x", v, got)
		}
	}
}

// TestParallelBuildEmptySide: an empty build side merges to an empty table
// with zero insertions for any worker count.
func TestParallelBuildEmptySide(t *testing.T) {
	e := New(table.NewCatalog()).NewExec(ExecConfig{})
	rel, keyOf := buildFixture(0)
	for _, w := range []int{1, 2, 7, 64} {
		ht, ins, err := e.build(nil, rel.Rows, keyOf, nil, w, &Budget{})
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if ins != 0 || len(ht.entries) != 0 {
			t.Errorf("w=%d: inserted %d, table size %d, want empty", w, ins, len(ht.entries))
		}
	}
}

// TestParallelBuildBudgetAbort: a tripped budget surfaces ErrBudget from the
// build at one worker and at several.
func TestParallelBuildBudgetAbort(t *testing.T) {
	e := New(table.NewCatalog()).NewExec(ExecConfig{})
	rel, keyOf := buildFixture(5000)
	for _, w := range []int{1, 4} {
		b := &Budget{}
		b.Deadline = time.Now().Add(-time.Second)
		if _, _, err := e.build(nil, rel.Rows, keyOf, nil, w, b); !errors.Is(err, ErrBudget) {
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
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
			e := New(cat).NewExec(ExecConfig{Obs: obs.NewTracer(col)})
			b := &Budget{}
			rel, _, err := e.ExecTree(tc.q, tree, b)
			if err != nil {
				t.Fatalf("%s GOMAXPROCS %d: %v", tc.name, par, err)
			}
			nls := col.SpansOf(obs.KNestedLoop)
			if len(nls) != 1 {
				t.Fatalf("%s GOMAXPROCS %d: %d nested-loop spans", tc.name, par, len(nls))
			}
			return rel, b.Produced(), nls[0]
		}
		srel, sprod, ssp := run(1)
		for _, par := range []int{0, 2, 7, 64} {
			prel, pprod, psp := run(par)
			if !table.IdenticalRows(prel.Rows, srel.Rows) {
				t.Errorf("%s GOMAXPROCS %d: rows differ from serial", tc.name, par)
			}
			if pprod != sprod {
				t.Errorf("%s GOMAXPROCS %d: produced %v, serial %v", tc.name, par, pprod, sprod)
			}
			if psp.RowsIn != ssp.RowsIn || psp.RowsOut != ssp.RowsOut {
				t.Errorf("%s GOMAXPROCS %d: span %d/%d, serial %d/%d",
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
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
		e := New(cat).NewExec(ExecConfig{})
		rel, _, err := e.ExecTree(q, tree, &Budget{})
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", par, err)
		}
		return rel
	}
	ref := run(1)
	if ref.Count() != 6000 {
		t.Fatalf("cross product produced %d rows, want 6000", ref.Count())
	}
	for _, par := range []int{2, 7, 64} {
		if got := run(par); !table.IdenticalRows(got.Rows, ref.Rows) {
			t.Errorf("GOMAXPROCS %d: rows differ from serial", par)
		}
	}
}
