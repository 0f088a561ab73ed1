// Streaming batch pipeline: every operator consumes and produces fixed-size
// row batches through the rowIter interface instead of whole materialized
// relations, so filter → join → filter stages of one tree overlap and peak
// memory is bounded by batch size × pipeline depth rather than intermediate
// cardinality. A join that expands its input keeps to that bound too: it
// probes its input batch in slices and emits about one batch per pull — at
// most one batch plus one probe row's matches while its fan-out holds steady
// (joinIter). Two stages stay pipeline-breakers by construction: the
// hash-join build side (the hash table needs every build row before the first
// probe) and the tree root's final materialize (the MDP's Re store and the
// plan cache key the full relation). The Σ pass runs over that materialized
// root.
//
// Determinism contract: a run is bit-identical at every batch size, worker
// count and shard layout — same output rows in the same order, same budget
// totals, same span kinds with the same rows/produced accounting. Batches
// preserve input order (each output batch is the join of a run of
// consecutive input rows, emitted in input order; fan-outs stitch per-worker
// buffers in partition order), and operator spans open in one fixed order — a
// join's umbrella, its left subtree, its right subtree, then its build and
// probe — accumulating rows across batches. The only telemetry that varies is
// the number of KWorker spans (one fan-out per large-enough batch) and of
// KShard spans (one per storage shard), the two configuration-dependent span
// kinds.
package engine

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/table"
)

// DefaultBatchSize is the pipeline batch size when ExecConfig.BatchSize is 0.
const DefaultBatchSize = 4096

// unboundedBatch stands in for "one batch holds everything" when
// ExecConfig.BatchSize < 0 (materialized mode). Kept far from MaxInt so
// lo+slab arithmetic cannot overflow.
const unboundedBatch = int(^uint(0) >> 2)

// batch resolves the BatchSize knob: 0 = DefaultBatchSize, negative =
// unbounded (each operator emits its whole output as one batch).
func (e *Exec) batch() int {
	switch {
	case e.BatchSize < 0:
		return unboundedBatch
	case e.BatchSize == 0:
		return DefaultBatchSize
	}
	return e.BatchSize
}

// scanSlab sizes the chunk a leaf scan examines per pull. It is at least the
// batch size, but also at least workers × parallelMinChunk so that a filter
// scan over a large base table fans out at the configured width (a bare batch
// of 4096 rows would cap the fan-out at 4 workers regardless of Parallelism).
func (e *Exec) scanSlab() int {
	slab := e.batch()
	w := e.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if min := w * parallelMinChunk; slab < min {
		slab = min
	}
	return slab
}

// rowIter is the pull-based batch iterator every streaming operator
// implements. Next returns the next non-empty batch of rows, nil when
// exhausted.
//
// Two lifetimes are in play. The batch — the slice of row headers — belongs
// to the iterator and is valid only until the next Next call: scans and joins
// reuse their gather and output buffers. The rows it points at live as long
// as their consumer said it needs them when it opened the iterator (open's
// keep). A scan's rows are the stored table's. A join writes each output row
// once, into a slot of a slab it never writes again and never reuses before
// the scope's Release — for a consumer that keeps rows, the root materialize
// or a join's collected build side, which therefore copies the row headers
// out of the batch and nothing more. A consumer that keeps none, a parent
// join's probe side, copies what it reads into rows of its own, so its child
// writes each batch into the slabs of the batch before: those rows are valid
// only until the next Next. Rows are tight (cap == len): appending to one
// reallocates rather than reaching into the next slot. No operator may write
// into a row it was handed.
//
// Close must be called exactly once, with the error that stopped the drain
// (nil on a clean run); it ends the iterator's spans and cascades to children.
type rowIter interface {
	Next() ([]table.Row, error)
	Close(err error)
}

// nodeIter wraps a plan node's operator iterator with the per-node
// accounting ExecResult carries: inclusive wall time (children are pulled
// inside the parent's Next, so accumulated pull time is inclusive), the
// hardened cardinality on clean exhaustion, and the §4.4 Produced charge per
// emitted batch.
type nodeIter struct {
	inner rowIter
	key   string
	res   *ExecResult
	rows  int
	done  bool
}

func (t *nodeIter) Next() ([]table.Row, error) {
	t0 := time.Now()
	b, err := t.inner.Next()
	t.res.Times[t.key] += time.Since(t0)
	if err != nil {
		return nil, err
	}
	if b == nil {
		if !t.done {
			t.done = true
			// Counts are hardened statistics: only a complete drain may
			// record one (an aborted run must not teach the optimizer a
			// truncated cardinality).
			t.res.Counts[t.key] = float64(t.rows)
		}
		return nil, nil
	}
	t.rows += len(b)
	t.res.Produced += float64(len(b))
	return b, nil
}

func (t *nodeIter) Close(err error) { t.inner.Close(err) }

// collect gathers the node's whole output for a pipeline breaker and closes
// the node, listing the buffer it gathered into on h. An unfiltered scan hands
// its stored rows over instead of being drained, on any storage layout, with
// the accounting of a complete drain. The stored rows are the catalog's, so
// they are never listed on h: Release can neither recycle nor poison them.
func (t *nodeIter) collect(h *held) (buildSide, error) {
	sc, _ := t.inner.(*scanIter)
	if sc != nil && sc.filter == nil {
		t0 := time.Now()
		err := sc.handoff()
		t.res.Times[t.key] += time.Since(t0)
		if err != nil {
			return buildSide{}, err
		}
		t.res.Produced += float64(sc.base.Count())
		t.res.Counts[t.key] = float64(sc.base.Count())
		side := buildSide{rows: sc.base.Rows}
		if sc.sh != nil {
			side.bounds, side.perm = sc.sh.Bounds, sc.sh.Perm
		}
		return side, nil
	}
	var side buildSide
	for {
		b, err := t.Next()
		if err != nil {
			t.Close(err)
			return buildSide{}, err
		}
		if b == nil {
			break
		}
		side.rows = append(growRows(side.rows, len(b)), b...)
	}
	t.Close(nil)
	h.keepRows(side.rows)
	if sc != nil {
		side.bounds = sc.bounds
	}
	return side, nil
}

// open builds the iterator pipeline for a plan node and wraps it with
// accounting. parent is the enclosing join's umbrella span, nil at the tree
// root (where the ambient tracer stack — holding the KMaterialize span —
// supplies the parent). Below the root the parent must be explicit: a sibling
// subtree's spans stay open on the ambient stack while this one opens, so
// ambient parenting would splice unrelated operators together. layout, when
// non-nil, is the storage layout a leaf scan walks shard-major. keep says
// whether the consumer keeps the rows it is handed (see rowIter). Open time
// is charged to the node's inclusive time.
func (e *Exec) open(q *query.Query, n *plan.Node, budget *Budget, res *ExecResult, parent *obs.Span, layout *table.Sharded, keep bool) (*nodeIter, *table.Schema, error) {
	t0 := time.Now()
	var (
		it     rowIter
		schema *table.Schema
		err    error
	)
	if n.IsLeaf() {
		it, schema, err = e.openLeaf(q, n, budget, parent, layout)
	} else {
		it, schema, err = e.openJoin(q, n, budget, res, parent, keep)
	}
	res.Times[n.Key()] += time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	return &nodeIter{inner: it, key: n.Key(), res: res}, schema, nil
}

// openLeaf resolves a leaf into an iterator: a previously materialized
// expression if one exists under the leaf's key, otherwise a scan of the
// stored base table with every single-alias selection pushed down.
func (e *Exec) openLeaf(q *query.Query, n *plan.Node, budget *Budget, parent *obs.Span, layout *table.Sharded) (rowIter, *table.Schema, error) {
	key := n.Key()
	if m, ok := e.mats[key]; ok {
		// Reusing a materialized expression still costs one pass over it
		// (cost(r) = c(r) for r in Re, §4.4), charged slab by slab.
		sp := e.Obs.StartChild(parent, obs.KReuse, key).SetStr("expr", key).SetRows(m.Count(), m.Count())
		return &reuseIter{sp: sp, m: m, budget: budget, slab: e.batch()}, m.Schema, nil
	}
	if n.Leaf.Size() != 1 {
		return nil, nil, fmt.Errorf("engine: leaf %q references an unmaterialized expression", key)
	}
	alias := n.Leaf.Names()[0]
	tbl, ok := q.TableOf(alias)
	if !ok {
		return nil, nil, fmt.Errorf("engine: alias %q not in query", alias)
	}
	base := e.eng.Cat.MustGet(tbl).Renamed(alias)
	sels := q.SelsAt(n.Leaf)
	sp := e.Obs.StartChild(parent, obs.KScan, alias).SetStr("expr", key).SetNum("selections", float64(len(sels)))
	it := &scanIter{e: e, sp: sp, base: base, sh: layout, budget: budget, slab: e.scanSlab()}
	if layout != nil {
		sp.SetNum("shards", float64(layout.NumShards()))
	}
	if len(sels) > 0 {
		var err error
		it.filter, err = newPool(e, func() (*filterState, error) { return newFilterState(sels, base.Schema) })
		if err != nil {
			sp.End()
			return nil, nil, err
		}
	}
	return it, base.Schema, nil
}

// reuseIter streams a materialized relation back out in batch-sized slices,
// charging the reuse pass incrementally so deadlines fire mid-pass.
type reuseIter struct {
	sp     *obs.Span
	m      *table.Relation
	budget *Budget
	slab   int
	pos    int
	fail   error
	closed bool
}

func (r *reuseIter) Next() ([]table.Row, error) {
	if r.pos >= r.m.Count() {
		return nil, nil
	}
	lo := r.pos
	hi := min(lo+r.slab, r.m.Count())
	r.pos = hi
	if err := r.budget.Charge(hi - lo); err != nil {
		r.fail = err
		return nil, err
	}
	return r.m.Rows[lo:hi], nil
}

func (r *reuseIter) Close(error) {
	if r.closed {
		return
	}
	r.closed = true
	if r.fail != nil {
		r.sp.SetStr("err", r.fail.Error())
	}
	r.sp.End()
}

// scanIter streams a base table slab by slab, applying pushed-down
// selections. Its row source is the table in stored order, or — for the
// build side of a co-partitioned join (sh non-nil) — a shard-major walk of
// the storage layout's permutation, one KShard span per storage shard.
// Budget charges are the same either way: per slab without selections, per
// kept row with. Shard-major order is safe only because the consumer is a
// hash build, whose per-key layout does not depend on the order shards
// arrive in; a streaming probe side never scans this way.
type scanIter struct {
	e      *Exec
	sp     *obs.Span
	base   *table.Relation // renamed view: schema under the query alias
	sh     *table.Sharded
	filter *pool[filterState] // nil without selections: slabs pass through
	budget *Budget
	slab   int
	seg    int         // current segment: a storage shard, or the whole table
	pos    int         // position within the segment
	cur    *obs.Span   // current shard's KShard span
	buf    []table.Row // gather buffer of the shard-major walk
	batch  []table.Row // stitch buffer of a filter fanned out over workers
	bounds []int       // shard-major walk: rows kept by the end of each finished shard
	segOut int         // rows kept from the current segment
	kept   int
	fail   error
	closed bool
}

// segment returns the current segment's length and whether one is left.
func (s *scanIter) segment() (n int, ok bool) {
	if s.sh == nil {
		return s.base.Count(), s.seg == 0
	}
	if s.seg >= s.sh.NumShards() {
		return 0, false
	}
	return len(s.sh.Shard(s.seg)), true
}

// advance steps to the next slab and returns its bounds within the current
// segment, opening and closing KShard spans at shard boundaries.
func (s *scanIter) advance() (lo, hi int, ok bool) {
	for {
		n, more := s.segment()
		if !more {
			return 0, 0, false
		}
		if s.sh != nil && s.cur == nil {
			s.cur = s.e.Obs.StartChild(s.sp, obs.KShard, fmt.Sprintf("s%d", s.seg))
		}
		if s.pos < n {
			lo, hi = s.pos, min(s.pos+s.slab, n)
			s.pos = hi
			return lo, hi, true
		}
		s.cur.SetRows(n, s.segOut).End()
		s.cur, s.segOut, s.pos = nil, 0, 0
		if s.sh != nil {
			s.bounds = append(s.bounds, s.kept)
		}
		s.seg++
	}
}

// pass charges and counts n rows that reach the output unfiltered.
func (s *scanIter) pass(n int) error {
	s.kept += n
	s.segOut += n
	if err := s.budget.Charge(n); err != nil {
		s.fail = err
		return err
	}
	return nil
}

// slabRows returns the rows of one slab of the current segment: a slice of
// the stored rows, or a gather through the layout's permutation.
func (s *scanIter) slabRows(lo, hi int) []table.Row {
	if s.sh == nil {
		return s.base.Rows[lo:hi]
	}
	ids := s.sh.Shard(s.seg)[lo:hi]
	s.buf = growRows(s.buf[:0], len(ids))
	rows := s.buf[:len(ids)]
	for j, id := range ids {
		rows[j] = s.base.Rows[id]
	}
	return rows
}

func (s *scanIter) Next() ([]table.Row, error) {
	for {
		lo, hi, ok := s.advance()
		if !ok {
			return nil, nil
		}
		rows := s.slabRows(lo, hi)
		if s.filter == nil {
			if err := s.pass(len(rows)); err != nil {
				return nil, err
			}
			return rows, nil
		}
		op := s.sp
		if s.cur != nil {
			op = s.cur
		}
		w := s.e.workers(len(rows))
		err := s.filter.run(op, len(rows), w, func(st *filterState, lo, hi int) error {
			return st.filterRows(rows[lo:hi], s.budget)
		})
		out := stitch(&s.batch, w, func(i int) []table.Row { return s.filter.states[i].out })
		s.kept += len(out)
		s.segOut += len(out)
		if err != nil {
			s.fail = err
			return nil, err
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

// handoff is the no-drain form of an unfiltered scan, for a build that reads
// the stored rows in place (base.Rows, through the layout's permutation when
// the walk is shard-major): every stored row survives such a scan, so there
// is nothing to gather. It emits the spans and slab-granular charges of a full
// drain — the trace and the budget cannot tell the two apart — and ends the
// scan; only the per-row-header copies of gather-then-drain disappear.
func (s *scanIter) handoff() error {
	for {
		lo, hi, ok := s.advance()
		if !ok {
			s.Close(nil)
			return nil
		}
		if err := s.pass(hi - lo); err != nil {
			s.Close(err)
			return err
		}
	}
}

func (s *scanIter) Close(error) {
	if s.closed {
		return
	}
	s.closed = true
	s.e.held.keepRows(s.buf)
	s.e.held.keepRows(s.batch)
	if s.filter != nil {
		for _, st := range s.filter.states {
			s.e.held.keepRows(st.out)
		}
	}
	if s.cur != nil {
		if s.fail != nil {
			s.cur.SetStr("err", s.fail.Error())
		}
		s.cur.SetRows(len(s.sh.Shard(s.seg)), s.segOut).End()
	}
	s.sp.SetRows(s.base.Count(), s.kept)
	if s.fail != nil {
		s.sp.SetStr("err", s.fail.Error()).End()
		return
	}
	s.sp.SetProduced(float64(s.kept)).End()
}

// openJoin builds one join node's pipeline under a KJoin umbrella span. The
// left child streams; the right child is a pipeline-breaker, collected in
// full at open time to build the hash table (or to serve as the nested
// loop's inner side, re-scanned once per outer row).
func (e *Exec) openJoin(q *query.Query, n *plan.Node, budget *Budget, res *ExecResult, parent *obs.Span, keep bool) (rowIter, *table.Schema, error) {
	jsp := e.Obs.StartChild(parent, obs.KJoin, n.Key()).SetStr("expr", n.Key())
	fail := func(err error, open ...rowIter) (rowIter, *table.Schema, error) {
		for _, it := range open {
			it.Close(err)
		}
		jsp.SetStr("err", err.Error()).End()
		return nil, nil, err
	}
	// The hash predicate is chosen before the children open (it is pure) so
	// the exchange decision can steer how the build child is scanned: a
	// build child served directly by the storage layout on the join key
	// scans shard-major and builds with zero moved rows; any other hash
	// build on a sharded catalog is a reshuffle.
	spec := &joinSpec{node: n, sels: q.SelsNewAt(n.Left.Aliases(), n.Right.Aliases())}
	spec.pickHash(q.PredsNewAt(n.Left.Aliases(), n.Right.Aliases()))
	layout := e.coPartitioned(q, n.Right, spec.buildTerm)

	left, lschema, err := e.open(q, n.Left, budget, res, jsp, nil, false)
	if err != nil {
		return fail(err)
	}
	right, rschema, err := e.open(q, n.Right, budget, res, jsp, layout, true)
	if err != nil {
		return fail(err, left)
	}
	spec.left, spec.right, spec.out = lschema, rschema, lschema.Concat(rschema)
	states, err := newPool(e, func() (*joinState, error) { return newJoinState(spec) })
	if err != nil {
		return fail(err, left, right)
	}
	side, err := right.collect(&e.held)
	if err != nil {
		return fail(err, left)
	}
	it := &joinIter{e: e, jsp: jsp, left: left, build: side.rows, states: states, budget: budget, stream: !keep}
	residuals := float64(len(spec.preds) + len(spec.sels))
	if spec.buildTerm == nil {
		it.prior = float64(len(side.rows))
		it.sp = e.Obs.StartChild(jsp, obs.KNestedLoop, n.Key()).SetNum("residuals", residuals)
		return it, spec.out, nil
	}
	keyOf := evalKey(spec.buildTerm, rschema)
	if side.perm != nil {
		keyOf = storedKey(layout)
	}
	var filterOf func() filterFn
	if len(spec.buildRest) > 0 {
		filterOf = keyFilter(spec.buildRest, rschema)
	}
	bsp := e.Obs.StartChild(jsp, obs.KHashBuild, n.Key()).SetNum("key_terms", float64(1+len(spec.buildRest)))
	ht, inserted, err := e.build(bsp, side, keyOf, filterOf, e.shardCount(), e.workers(len(side.rows)), budget)
	bsp.SetRows(len(side.rows), inserted)
	if err != nil {
		bsp.SetStr("err", err.Error()).End()
		return fail(err, left)
	}
	e.noteExchange(bsp, layout != nil, inserted)
	bsp.SetNum("residuals", residuals).End()
	it.ht = ht
	if keys := ht.keys(); keys > 0 {
		it.prior = float64(inserted) / float64(keys)
	}
	it.sp = e.Obs.StartChild(jsp, obs.KHashProbe, n.Key())
	return it, spec.out, nil
}

// noteExchange records what a hash build on a sharded catalog moved: nothing
// when the build side was co-partitioned (local), otherwise every inserted
// row, hash-routed across the exchange.
func (e *Exec) noteExchange(bsp *obs.Span, local bool, inserted int) {
	shards := e.shardCount()
	if shards == 1 {
		return
	}
	bsp.SetNum("shards", float64(shards))
	if local {
		bsp.SetNum("local", 1)
	} else {
		bsp.SetNum("local", 0).SetNum("exchange_rows", float64(inserted))
	}
	if e.Metrics == nil {
		return
	}
	if local {
		e.Metrics.Counter("monsoon.exchange.joins.local").Inc()
	} else {
		e.Metrics.Counter("monsoon.exchange.joins.reshuffle").Inc()
		e.Metrics.Counter("monsoon.exchange.rows").Add(int64(inserted))
	}
}

// joinIter joins the rows pulled from the left child with the collected
// right side: a probe of the prebuilt hash table, or — when no predicate
// separates the children (ht nil) — the filtered product, whose span reports
// rows-in as the number of row pairs scanned. Output order is left-major over
// the stream, identical at every batch size because every call probes a run
// of consecutive left rows, in input order.
//
// When it closes it hands its slabs, table and buffers to its Exec, where
// they stay until Release. A streaming join (stream set: the consumer is a
// parent's probe side, which copies what it reads) rewinds when the next
// batch is pulled and writes that batch into the slabs of the last one, so it
// holds one batch's slabs rather than its whole output. It also probes a left
// batch in slices (slice), so that one pull emits about one batch however far
// the join expands its input: at most one batch plus one probe row's matches
// while the fan-out stays where it has been. A kept join (a root, or a build
// side) keeps every row it emits whatever its batches, so it probes each left
// batch whole.
type joinIter struct {
	e       *Exec
	jsp, sp *obs.Span // the KJoin umbrella; the KHashProbe or KNestedLoop operator
	left    rowIter
	build   []table.Row
	ht      *shardedTable
	states  *pool[joinState]
	budget  *Budget
	batch   []table.Row // stitch buffer of a batch fanned out over workers
	stream  bool
	in      []table.Row // the left batch in hand; in[pos:] is still to probe
	pos     int
	prior   float64 // output rows expected per probe row before any is probed
	probed  int     // left rows probed so far
	emitted int
	fail    error
	closed  bool
}

func (j *joinIter) Next() ([]table.Row, error) {
	if j.stream {
		for _, st := range j.states.states {
			st.rewind()
		}
	}
	for {
		if j.pos == len(j.in) {
			batch, err := j.left.Next()
			if err != nil {
				j.fail = err
				return nil, err
			}
			if batch == nil {
				return nil, nil
			}
			j.in, j.pos = batch, 0
		}
		probe, w := j.slice()
		kernel := func(st *joinState, lo, hi int) error {
			return st.probeRows(probe[lo:hi], j.build, j.ht, j.budget)
		}
		if j.ht == nil {
			kernel = func(st *joinState, lo, hi int) error {
				return st.loopRows(probe[lo:hi], j.build, j.budget)
			}
		}
		err := j.states.run(j.sp, len(probe), w, kernel)
		out := stitch(&j.batch, w, func(i int) []table.Row { return j.states.states[i].out })
		j.emitted += len(out)
		if err != nil {
			j.fail = err
			return nil, err
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

// slice takes the next run of left rows to probe off the batch in hand and
// returns it with the width to fan it out at. A streaming join that expects
// more than one output row per probe row — the rows it has emitted per row
// probed so far, or its prior before any — takes only as many as fill one
// batch of output at that rate, and leaves the rest for the next pull. Any
// other call takes the whole rest of the batch. A call that probes less than
// its whole batch fans out by the rows it is expected to emit, so that a
// slice of a few expanding rows still spreads over the workers its output
// needs; every other call fans out as it always has. A nested loop fans out
// by the pairs it scans, which bound what it emits, sliced or not.
func (j *joinIter) slice() ([]table.Row, int) {
	rest := j.in[j.pos:]
	n := len(rest)
	f := j.prior
	if j.probed > 0 {
		f = float64(j.emitted) / float64(j.probed)
	}
	if j.stream && f > 1 {
		n = min(n, int(math.Ceil(float64(j.e.batch())/f)))
	}
	j.pos += n
	j.probed += n
	switch {
	case j.ht == nil:
		// Sized by the pairs to scan, capped by the outer rows to split.
		return rest[:n], min(j.e.workers(n*len(j.build)), n)
	case n < len(j.in):
		return rest[:n], min(j.e.workers(int(float64(n)*max(f, 1))), n)
	}
	return rest[:n], j.e.workers(n)
}

func (j *joinIter) Close(err error) {
	if j.closed {
		return
	}
	j.closed = true
	j.left.Close(err)
	h := &j.e.held
	if j.ht != nil {
		h.keepTable(j.ht)
	}
	h.keepRows(j.batch)
	in := 0
	for _, st := range j.states.states {
		in += st.in
		h.keepRows(st.out)
		h.slabs = append(append(h.slabs, st.slabs...), st.spare...)
	}
	j.sp.SetRows(in, j.emitted)
	if j.fail != nil {
		j.sp.SetStr("err", j.fail.Error()).End()
		j.jsp.SetStr("err", j.fail.Error()).End()
		return
	}
	j.sp.SetProduced(float64(j.emitted)).End()
	j.jsp.SetRows(0, j.emitted).End()
}

// coPartitioned returns the storage layout that serves a join's build child
// directly, or nil: the child must be a leaf plan.Node.ShardLocal accepts,
// not reused from a materialized intermediate. Equal join keys then never
// span storage shards (the shard column IS the join key and routing is by its
// hash), so the build can scan shard-major with zero row movement and still
// yield the hash-table layout of a scan in stored order — within a storage
// shard rows keep their original relative order, and all rows of one key live
// in one shard, so every chain's row list comes out the same.
func (e *Exec) coPartitioned(q *query.Query, n *plan.Node, buildTerm *query.Term) *table.Sharded {
	if buildTerm == nil {
		return nil
	}
	if _, mat := e.mats[n.Key()]; mat {
		// A materialized intermediate is reused from the Re store, not the
		// storage layer; its rows are not shard-partitioned.
		return nil
	}
	tbl, ok := n.ShardLocal(q, buildTerm, e.eng.Cat)
	if !ok {
		return nil
	}
	sh, _ := e.eng.Cat.ShardsOf(tbl)
	return sh
}
