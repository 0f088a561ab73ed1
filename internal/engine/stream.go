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
// Determinism contract: a run is bit-identical at every batch size and
// worker count — same output rows in the same order, same budget totals,
// same span kinds with the same rows/produced accounting. Batches preserve
// input order (each output batch is the join of a run of consecutive input
// rows, emitted in input order; fan-outs stitch per-worker buffers in
// partition order), and operator spans open in one fixed order — a
// join's umbrella, its left subtree, its right subtree, then its build and
// probe — accumulating rows across batches. The only telemetry that varies is
// the number of KWorker spans (one fan-out per large-enough batch), the one
// configuration-dependent span kind.
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

// batchRows caps the rows one pipeline batch carries between streaming
// operators. Results, row order, budget totals and span accounting are the
// same at any batch; only peak memory and wall time depend on it.
const batchRows = 4096

// batch is the scope's pipeline batch: batchRows, or the test seam.
func (e *Exec) batch() int {
	if e.testBatch > 0 {
		return e.testBatch
	}
	return batchRows
}

// scanSlab sizes the chunk a leaf scan examines per pull. It is at least the
// batch size, but also at least GOMAXPROCS × parallelMinChunk so that a
// filter scan over a large base table fans out at full width (a bare batch of
// 4096 rows would cap the fan-out at 4 workers).
func (e *Exec) scanSlab() int {
	slab := e.batch()
	if min := runtime.GOMAXPROCS(0) * parallelMinChunk; slab < min {
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
// reuse their stitch and output buffers. The rows it points at live as long
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
// its stored rows over instead of being drained, with the accounting of a
// complete drain. The stored rows are the catalog's, so they are never listed
// on h: Release can neither recycle nor poison them.
func (t *nodeIter) collect(h *held) ([]table.Row, error) {
	if sc, ok := t.inner.(*scanIter); ok && sc.filter == nil {
		t0 := time.Now()
		err := sc.handoff()
		t.res.Times[t.key] += time.Since(t0)
		if err != nil {
			return nil, err
		}
		t.res.Produced += float64(sc.base.Count())
		t.res.Counts[t.key] = float64(sc.base.Count())
		return sc.base.Rows, nil
	}
	var rows []table.Row
	for {
		b, err := t.Next()
		if err != nil {
			t.Close(err)
			return nil, err
		}
		if b == nil {
			break
		}
		// rows is this loop's own buffer, listed on h only below: an
		// outgrown step of it has no reader left.
		rows = append(growRows(rows, len(b)), b...)
	}
	t.Close(nil)
	h.keepRows(rows)
	return rows, nil
}

// open builds the iterator pipeline for a plan node and wraps it with
// accounting. parent is the enclosing join's umbrella span, nil at the tree
// root (where the ambient tracer stack — holding the KMaterialize span —
// supplies the parent). Below the root the parent must be explicit: a sibling
// subtree's spans stay open on the ambient stack while this one opens, so
// ambient parenting would splice unrelated operators together. keep says
// whether the consumer keeps the rows it is handed (see rowIter). Open time
// is charged to the node's inclusive time.
func (e *Exec) open(q *query.Query, n *plan.Node, budget *Budget, res *ExecResult, parent *obs.Span, keep bool) (*nodeIter, *table.Schema, error) {
	t0 := time.Now()
	var (
		it     rowIter
		schema *table.Schema
		err    error
	)
	if n.IsLeaf() {
		it, schema, err = e.openLeaf(q, n, budget, parent)
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
func (e *Exec) openLeaf(q *query.Query, n *plan.Node, budget *Budget, parent *obs.Span) (rowIter, *table.Schema, error) {
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
	it := &scanIter{e: e, sp: sp, base: base, budget: budget, slab: e.scanSlab()}
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

// reuseIter streams a materialized relation back out in slices of one batch,
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

// scanIter streams a base table in stored order, slab by slab, applying
// pushed-down selections. Budget charges are per slab without selections, per
// kept row with.
type scanIter struct {
	e      *Exec
	sp     *obs.Span
	base   *table.Relation    // renamed view: schema under the query alias
	filter *pool[filterState] // nil without selections: slabs pass through
	budget *Budget
	slab   int
	pos    int
	batch  []table.Row // stitch buffer of a filter fanned out over workers
	kept   int
	fail   error
	closed bool
}

// advance steps to the next slab of the stored rows, nil at the end.
func (s *scanIter) advance() []table.Row {
	lo := s.pos
	if lo >= s.base.Count() {
		return nil
	}
	s.pos = min(lo+s.slab, s.base.Count())
	return s.base.Rows[lo:s.pos]
}

// pass charges and counts n rows that reach the output unfiltered.
func (s *scanIter) pass(n int) error {
	s.kept += n
	if err := s.budget.Charge(n); err != nil {
		s.fail = err
		return err
	}
	return nil
}

func (s *scanIter) Next() ([]table.Row, error) {
	for {
		rows := s.advance()
		if rows == nil {
			return nil, nil
		}
		if s.filter == nil {
			if err := s.pass(len(rows)); err != nil {
				return nil, err
			}
			return rows, nil
		}
		w := s.e.workers(len(rows))
		err := s.filter.run(s.sp, len(rows), w, func(st *filterState, lo, hi int) error {
			return st.filterRows(rows[lo:hi], s.budget)
		})
		out := stitch(&s.batch, w, func(i int) []table.Row { return s.filter.states[i].out })
		s.kept += len(out)
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
// the stored rows in place: every stored row survives such a scan, so there is
// nothing to gather. It emits the spans and slab-granular charges of a full
// drain — the trace and the budget cannot tell the two apart — and ends the
// scan; only the per-row-header copies of gather-then-drain disappear.
func (s *scanIter) handoff() error {
	for rows := s.advance(); rows != nil; rows = s.advance() {
		if err := s.pass(len(rows)); err != nil {
			s.Close(err)
			return err
		}
	}
	s.Close(nil)
	return nil
}

func (s *scanIter) Close(error) {
	if s.closed {
		return
	}
	s.closed = true
	s.e.held.keepRows(s.batch)
	if s.filter != nil {
		for _, st := range s.filter.states {
			s.e.held.keepRows(st.out)
		}
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
	spec := &joinSpec{node: n, sels: q.SelsNewAt(n.Left.Aliases(), n.Right.Aliases())}
	spec.pickHash(q.PredsNewAt(n.Left.Aliases(), n.Right.Aliases()))
	left, lschema, err := e.open(q, n.Left, budget, res, jsp, false)
	if err != nil {
		return fail(err)
	}
	right, rschema, err := e.open(q, n.Right, budget, res, jsp, true)
	if err != nil {
		return fail(err, left)
	}
	spec.left, spec.right, spec.out = lschema, rschema, lschema.Concat(rschema)
	states, err := newPool(e, func() (*joinState, error) { return newJoinState(spec) })
	if err != nil {
		return fail(err, left, right)
	}
	build, err := right.collect(&e.held)
	if err != nil {
		return fail(err, left)
	}
	it := &joinIter{e: e, jsp: jsp, left: left, build: build, states: states, budget: budget, stream: !keep}
	residuals := float64(len(spec.preds) + len(spec.sels))
	if spec.buildTerm == nil {
		it.prior = float64(len(build))
		it.sp = e.Obs.StartChild(jsp, obs.KNestedLoop, n.Key()).SetNum("residuals", residuals)
		return it, spec.out, nil
	}
	var filterOf func() filterFn
	if len(spec.buildRest) > 0 {
		filterOf = keyFilter(spec.buildRest, rschema)
	}
	bsp := e.Obs.StartChild(jsp, obs.KHashBuild, n.Key()).SetNum("key_terms", float64(1+len(spec.buildRest)))
	ht, inserted, err := e.build(bsp, build, evalKey(spec.buildTerm, rschema), filterOf, e.workers(len(build)), budget)
	bsp.SetRows(len(build), inserted)
	if err != nil {
		bsp.SetStr("err", err.Error()).End()
		return fail(err, left)
	}
	bsp.SetNum("residuals", residuals).End()
	it.ht = ht
	if keys := len(ht.entries); keys > 0 {
		it.prior = float64(inserted) / float64(keys)
	}
	it.sp = e.Obs.StartChild(jsp, obs.KHashProbe, n.Key())
	return it, spec.out, nil
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
	ht      *joinTable
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
