// Row kernels and the one fan-out that spreads them over workers. Every
// partitionable operator — filter scan, hash build, hash probe, nested loop,
// Σ pass — is written once as a kernel over a contiguous range of its input
// plus a per-worker state (bindings, row slab, output buffer, sketches),
// and runs through fanOut: the input splits into w contiguous chunks, each
// worker fills its own state, and the states are stitched (or merged) back in
// chunk order. That order is exactly what a single pass would have produced,
// so a run is bit-identical at every worker count: same row order, same
// hash-table chain order, same Σ estimates (the HLL register merge is
// order-independent), same budget totals. Only wall time changes. One worker
// is not a separate path — it is the same kernel called inline.
package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/sketch"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

const (
	// parallelMinRows is the smallest input for which fanning out pays;
	// below it the goroutine handoff costs more than the scan.
	parallelMinRows = 4096
	// parallelMinChunk bounds the worker count so every worker has a
	// meaningful slice of the input.
	parallelMinChunk = 1024
)

// workers is an operator's width over n input rows: runtime.GOMAXPROCS(0),
// degraded to 1 when the input is too small to be worth splitting.
func (e *Exec) workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w <= 1 || n < parallelMinRows {
		return 1
	}
	if max := n / parallelMinChunk; w > max {
		w = max
	}
	return w
}

// splitRows partitions [0,n) into w contiguous [lo,hi) ranges whose sizes
// differ by at most one row.
func splitRows(n, w int) [][2]int {
	out := make([][2]int, 0, w)
	base, rem := n/w, n%w
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// fanOut runs fn over w contiguous partitions of n rows and returns the error
// of the lowest-numbered failing partition (deterministic even when several
// workers trip the budget at once). One worker runs inline on the caller's
// goroutine and leaves no trace. Wider fan-outs record, when tracing is on,
// one KWorker span per partition under op, the first fan-out's width as op's
// "workers" attribute and the running span total as "worker_spans" (streaming
// operators fan out once per large-enough batch). Span IDs stay deterministic
// because the coordinator creates every worker span before the goroutines
// launch and ends them in index order after the barrier; each span's duration
// is the worker's own measured busy time, not the coordinator's wall clock.
// Worker counts follow GOMAXPROCS, which is why KWorker is the one
// machine-dependent span kind.
func (e *Exec) fanOut(op *obs.Span, n, w int, fn func(worker, lo, hi int) error) error {
	if w <= 1 {
		return fn(0, 0, n)
	}
	parts := splitRows(n, w)
	var spans []*obs.Span
	if op != nil {
		// Only this coordinating goroutine ever annotates an operator span,
		// so reading the attribute map back needs no lock.
		if _, seen := op.Num["workers"]; !seen {
			op.SetNum("workers", float64(w))
		}
		op.AddNum("worker_spans", float64(w))
		spans = make([]*obs.Span, w)
		for i, p := range parts {
			spans[i] = e.Obs.StartChild(op, obs.KWorker, fmt.Sprintf("w%d", i)).SetRows(p[1]-p[0], 0)
		}
	}
	elapsed := make([]time.Duration, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			errs[i] = fn(i, p[0], p[1])
			elapsed[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	for i, sp := range spans {
		if errs[i] != nil {
			sp.SetStr("err", errs[i].Error())
		}
		sp.EndIn(elapsed[i])
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pool holds one operator's per-worker states. Bindings carry evaluation
// scratch and must not be shared, so every worker index owns a state; it is
// made at first use and kept for the operator's lifetime, however many
// batches fan out through it. State 0 is made when the operator opens, which
// is where an unbindable predicate is reported.
type pool[S any] struct {
	e      *Exec
	mk     func() (*S, error)
	states []*S
}

func newPool[S any](e *Exec, mk func() (*S, error)) (*pool[S], error) {
	st, err := mk()
	if err != nil {
		return nil, err
	}
	return &pool[S]{e: e, mk: mk, states: []*S{st}}, nil
}

// run spreads kernel over n rows on w workers, each with its own state; the
// caller reads the results back from states[:w].
func (p *pool[S]) run(op *obs.Span, n, w int, kernel func(st *S, lo, hi int) error) error {
	for len(p.states) < w {
		st, _ := p.mk() // state 0 proved every binding resolves
		p.states = append(p.states, st)
	}
	return p.e.fanOut(op, n, w, func(worker, lo, hi int) error {
		return kernel(p.states[worker], lo, hi)
	})
}

// stitch concatenates w per-worker output buffers in partition order, which
// is exactly the order a single pass would have produced. One buffer is
// returned as is: it stays valid until its worker's next run, which is as
// long as the rowIter contract lets a consumer hold a batch. Several are
// copied into *dst, the caller's stitch buffer, which the next stitch reuses.
func stitch(dst *[]table.Row, w int, buf func(worker int) []table.Row) []table.Row {
	if w == 1 {
		return buf(0)
	}
	total := 0
	for i := 0; i < w; i++ {
		total += len(buf(i))
	}
	// The outgrown buffer held the batch the last stitch returned, which
	// the rowIter contract ended with the Next call this stitch serves.
	out := growRows((*dst)[:0], total)
	for i := 0; i < w; i++ {
		out = append(out, buf(i)...)
	}
	*dst = out
	return out
}

// boundSel is one pushed-down selection bound to a concrete schema.
type boundSel struct {
	b *expr.Binding
	k value.Value
}

// filterState is one worker's side of a filter scan.
type filterState struct {
	bound []boundSel
	out   []table.Row
	runs  tally
}

func newFilterState(sels []*query.SelPred, s *table.Schema) (*filterState, error) {
	st := &filterState{bound: make([]boundSel, 0, len(sels))}
	for _, sel := range sels {
		b, ok := sel.T.Fn.Bind(s)
		if !ok {
			return nil, fmt.Errorf("engine: selections not bindable on %s", s)
		}
		st.bound = append(st.bound, boundSel{b: b, k: sel.Const})
	}
	return st, nil
}

func (st *filterState) keep(row table.Row) bool {
	for _, s := range st.bound {
		if !s.b.Eval(row).Equal(s.k) {
			return false
		}
	}
	return true
}

// filterRows leaves in st.out the rows that pass every selection, charging
// one tuple per kept row. On a budget error st.out holds what was kept so
// far, the row that tripped the budget included.
func (st *filterState) filterRows(rows []table.Row, budget *Budget) (err error) {
	defer st.runs.flush(budget, &err)
	if st.out == nil {
		st.out = freeRows.take(len(rows)/4 + 1)
	}
	out := st.out[:0]
	for _, row := range rows {
		if !st.keep(row) {
			continue
		}
		if len(out) == cap(out) {
			// What the outgrown buffer held is copied into the grown one.
			// Nobody else reads it: it is also the batch that the scan's
			// last Next returned, if that Next ran one worker, and the
			// rowIter contract ended that batch when this Next was called.
			out = growRows(out, 1)
		}
		out = append(out, row)
		if err = st.runs.count(budget); err != nil {
			break
		}
	}
	st.out = out
	return err
}

// residual is a predicate evaluated per joined row pair.
type residual struct {
	lb, rb *expr.Binding // join predicate sides (nil for selections)
	sb     *expr.Binding // selection term
	k      value.Value   // selection constant
}

func passResiduals(row table.Row, residuals []residual) bool {
	for _, r := range residuals {
		if r.sb != nil {
			if !r.sb.Eval(row).Equal(r.k) {
				return false
			}
			continue
		}
		if !r.lb.Eval(row).Equal(r.rb.Eval(row)) {
			return false
		}
	}
	return true
}

// joinSpec is what a join node resolves when it opens and what every worker
// state of its iterator binds against: the terms of the key predicates (none
// for a nested loop), the residual predicates, and the schemas they bind on.
type joinSpec struct {
	node *plan.Node
	// probeTerm = buildTerm is the first key predicate, the one the table is
	// keyed on. probeRest[i] = buildRest[i] are the further key predicates,
	// which only filter a chain walk.
	probeTerm, buildTerm *query.Term
	probeRest, buildRest []*query.Term
	preds                []*query.JoinPred // residual join predicates
	sels                 []*query.SelPred  // residual selections
	left, right, out     *table.Schema
}

// pickHash sorts the join's new predicates by plan.Node.KeyTerms, the join
// rule the cost model prices too, into key predicates and the rest, plain
// residuals evaluated over the concatenated row. The first key predicate is
// the hash predicate: the table holds one entry per distinct value of its
// build term, and that term alone decides whether the build is co-partitioned
// with the storage layout. The further key predicates stay in the
// residual list as well, so they are still decided by Equal on the joined
// row; what being a key predicate adds is one hash per build row and per
// probe row (keyFilter) that lets the chain walk pass over a pair the
// residual was going to reject, before it is copied.
func (j *joinSpec) pickHash(preds []*query.JoinPred) {
	j.preds = preds
	for i, p := range preds {
		probe, build, ok := j.node.KeyTerms(p)
		if !ok {
			continue
		}
		if j.buildTerm == nil {
			j.probeTerm, j.buildTerm = probe, build
			j.preds = append(append([]*query.JoinPred(nil), preds[:i]...), preds[i+1:]...)
			continue
		}
		j.probeRest, j.buildRest = append(j.probeRest, probe), append(j.buildRest, build)
	}
}

// slabRows caps the joined rows one slab holds. A state's first slab holds
// slabRows/16 and each further one twice its predecessor up to the cap, so a
// join that emits three rows does not clear the memory of 256.
const slabRows = 256

// joinState is one worker's side of a hash probe or nested loop. Joined rows
// are written in place into slab, a run of width-sized slots carved off the
// front as rows are emitted; a slot whose row fails a residual is simply
// written again. A slab is never written once its slots are carved off — a
// streaming join's rewind aside — so whoever holds an emitted row may keep it
// until the scope is released: the state lists every slab it takes, which the
// join hands to its Exec when it closes.
type joinState struct {
	pb        *expr.Binding // probe key over the left schema; nil in a nested loop
	pf        filterFn      // further probe key terms over the left schema; nil without any
	residuals []residual
	width     int             // columns of a joined row
	slab      []value.Value   // uncarved rest of the current slab
	grown     int             // rows the current slab was made for
	slabs     [][]value.Value // every slab taken, in full; see rewind for a streaming join
	spare     [][]value.Value // a streaming join's rewound slabs, for slot to reuse
	out       []table.Row
	in        int // left rows probed, or row pairs scanned, over the state's lifetime
	runs      tally
}

// newJoinState binds one worker's predicates; the first call per join is
// where an unbindable predicate or hash term is reported.
func newJoinState(j *joinSpec) (*joinState, error) {
	st := &joinState{width: len(j.out.Cols)}
	for _, p := range j.preds {
		lb, ok1 := p.L.Fn.Bind(j.out)
		rb, ok2 := p.R.Fn.Bind(j.out)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("engine: predicate %s not bindable at %s", p, j.node)
		}
		st.residuals = append(st.residuals, residual{lb: lb, rb: rb})
	}
	for _, s := range j.sels {
		sb, ok := s.T.Fn.Bind(j.out)
		if !ok {
			return nil, fmt.Errorf("engine: selection %s not bindable at %s", s, j.node)
		}
		st.residuals = append(st.residuals, residual{sb: sb, k: s.Const})
	}
	if j.probeTerm == nil {
		return st, nil
	}
	if !j.buildTerm.Fn.Evaluable(j.right) {
		return nil, fmt.Errorf("engine: term %s not bindable on build side", j.buildTerm)
	}
	pb, ok := j.probeTerm.Fn.Bind(j.left)
	if !ok {
		return nil, fmt.Errorf("engine: term %s not bindable on probe side", j.probeTerm)
	}
	st.pb = pb
	for i, t := range j.buildRest {
		if p := j.probeRest[i]; !t.Fn.Evaluable(j.right) || !p.Fn.Evaluable(j.left) {
			return nil, fmt.Errorf("engine: key predicate %s = %s not bindable on the children of %s", p, t, j.node)
		}
	}
	if len(j.probeRest) > 0 {
		st.pf = keyFilter(j.probeRest, j.left)()
	}
	return st, nil
}

// slot returns the next free slot of the slab, making a new slab when the
// current one is used up. Its capacity equals its length, so an append to an
// emitted row reallocates instead of reaching the neighbouring slot.
func (st *joinState) slot() table.Row {
	w := st.width
	if len(st.slab) < w {
		if n := len(st.spare); n > 0 {
			st.slab, st.spare = st.spare[n-1], st.spare[:n-1]
		} else {
			st.grown = max(slabRows/16, min(2*st.grown, slabRows))
			st.slab = freeSlabs.take(st.grown * w)
		}
		st.slabs = append(st.slabs, st.slab)
	}
	return st.slab[:w:w]
}

// emit commits the slot just written as the next output row and counts it
// toward the state's next charge.
func (st *joinState) emit(row table.Row, budget *Budget) error {
	st.slab = st.slab[st.width:]
	if len(st.out) == cap(st.out) {
		// What the outgrown buffer held is copied into the grown one.
		// Nobody else reads it: it is also the batch that the join's last
		// Next returned, if that Next ran one worker, and the rowIter
		// contract ended that batch when this Next was called.
		st.out = growRows(st.out, 1)
	}
	st.out = append(st.out, row)
	return st.runs.count(budget)
}

// probeRows joins each probe row with its matches in the hash table, in
// probe order: entries of the key's hash in insertion order, build rows
// ascending within each. NULL keys never match. With further key predicates
// (ht.filter set), the probe row's further key terms are hashed once, and a
// build row whose filter hash differs is passed over before it is copied: it
// differs in a term the residuals demand equal, so they would have rejected
// the pair. The pairs that survive are still put to every residual, so the
// output is that of walking the whole chain.
func (st *joinState) probeRows(probe, build []table.Row, ht *joinTable, budget *Budget) (err error) {
	defer st.runs.flush(budget, &err)
	st.out = st.out[:0]
	var pace pacer
	filter := ht.filter
	for _, prow := range probe {
		st.in++
		// Matchless probes charge nothing; poll the deadline anyway.
		if err := pace.tick(budget); err != nil {
			return err
		}
		k := st.pb.Eval(prow)
		if k.IsNull() {
			continue
		}
		var fh uint64
		if filter != nil {
			if fh = st.pf(prow); fh == 0 {
				continue
			}
		}
		h := k.Hash()
		mask := len(ht.slots) - 1
		var row table.Row // the open slot, its probe half written; nil after an emit
		for s := ht.home(h); ht.slots[s] != 0; s = (s + 1) & mask {
			e := &ht.entries[ht.slots[s]-1]
			if e.hash != h || !e.key.Equal(k) {
				continue
			}
			for bi := e.head; bi >= 0; bi = ht.next[bi] {
				if filter != nil && filter[bi] != fh {
					continue
				}
				if row == nil {
					row = st.slot()
					copy(row, prow)
				}
				copy(row[len(prow):], build[bi])
				if !passResiduals(row, st.residuals) {
					continue
				}
				if err := st.emit(row, budget); err != nil {
					return err
				}
				row = nil
			}
		}
	}
	return pace.done(budget)
}

// loopRows computes the filtered product of the outer rows with the whole
// inner side, outer-major.
func (st *joinState) loopRows(outer, inner []table.Row, budget *Budget) (err error) {
	defer st.runs.flush(budget, &err)
	st.out = st.out[:0]
	var pace pacer
	for _, lrow := range outer {
		var row table.Row // the open slot, its outer half written; nil after an emit
		for _, rrow := range inner {
			st.in++
			if row == nil {
				row = st.slot()
				copy(row, lrow)
			}
			copy(row[len(lrow):], rrow)
			if passResiduals(row, st.residuals) {
				if err := st.emit(row, budget); err != nil {
					return err
				}
				row = nil
				continue
			}
			// Even rejected pairs consume work; poll the deadline.
			if err := pace.tick(budget); err != nil {
				return err
			}
		}
	}
	return pace.done(budget)
}

// sigmaState is one worker's side of the Σ pass: a binding and a sketch per
// tracked term, in the pass's term order.
type sigmaState struct {
	bs   []*expr.Binding
	hs   []*sketch.HLL
	runs tally
}

// hllPrecision is the Σ sketches' precision, the paper's 14 (2^14 registers).
const hllPrecision = 14

func newSigmaState(terms []*query.Term, s *table.Schema) *sigmaState {
	st := &sigmaState{bs: make([]*expr.Binding, len(terms)), hs: make([]*sketch.HLL, len(terms))}
	for i, t := range terms {
		st.bs[i], _ = t.Fn.Bind(s) // the pass tracks only terms that bind
		st.hs[i] = sketch.NewHLL(hllPrecision)
	}
	return st
}

// sigmaRows charges every row (the extra pass, §4.4) and feeds each term's
// non-NULL value to its sketch.
func (st *sigmaState) sigmaRows(rows []table.Row, budget *Budget) (err error) {
	defer st.runs.flush(budget, &err)
	for _, row := range rows {
		if err := st.runs.count(budget); err != nil {
			return err
		}
		for i, b := range st.bs {
			v := b.Eval(row)
			if v.IsNull() {
				continue
			}
			st.hs[i].Add(v.Hash())
		}
	}
	return nil
}

// keyFn yields a build row's join key and the key's full hash.
type keyFn func(row table.Row) (value.Value, uint64)

// evalKey is the key source of a build: evaluate the build term, hash the
// value. Each worker binds its own copy.
func evalKey(term *query.Term, s *table.Schema) func() keyFn {
	return func() keyFn {
		bb, _ := term.Fn.Bind(s) // the join's first state proved it resolves
		return func(row table.Row) (value.Value, uint64) {
			k := bb.Eval(row)
			return k, k.Hash()
		}
	}
}

// filterFn hashes a row's further key terms — those of the key predicates
// after the first — into one word that two rows share whenever every term of
// the one Equals its counterpart of the other. 0 says a term is NULL, which
// equals nothing: such a row can never match.
type filterFn func(row table.Row) uint64

// keyFilter is the filter hash over terms bound on s; each worker binds its
// own copy. The join's first state proved that every term resolves.
func keyFilter(terms []*query.Term, s *table.Schema) func() filterFn {
	return func() filterFn {
		bs := make([]*expr.Binding, len(terms))
		for i, t := range terms {
			bs[i], _ = t.Fn.Bind(s)
		}
		return func(row table.Row) uint64 {
			h := uint64(filterMix)
			for _, b := range bs {
				v := b.Eval(row)
				if v.IsNull() {
					return 0
				}
				h = (h ^ equalHash(v)) * filterMix
			}
			if h == 0 {
				return 1
			}
			return h
		}
	}
}

// filterMix seeds the filter hash and, being odd, folds each term's hash into
// it invertibly. The filter hash is only ever compared, never reduced to a
// slot, so the terms need no better mixing than that.
const filterMix = 0x9E3779B97F4A7C15

// equalHash is a hash under which a.Equal(b) implies equal hashes, which
// Value.Hash is not: Equal compares an int with a float by their float64
// images, so Int(1<<53+1) equals Float(1<<53) while hashing as the integer it
// is, and two ints may both equal one float without equalling each other. The
// first key predicate has always missed such pairs (it finds entries by Hash);
// a residual never has, so the filter must not. Numerics therefore hash as
// their float64 image, -0 as 0; the other kinds equal only their own kind, by
// payload, which is what Hash covers.
func equalHash(v value.Value) uint64 {
	switch v.Kind() {
	case value.KindBool, value.KindInt, value.KindFloat:
		f := v.AsFloat()
		if f == 0 {
			f = 0 // -0 == 0: one image for both
		}
		return math.Float64bits(f)
	}
	return v.Hash()
}

// buildState is one worker's side of a hash build: its own key source, its
// own filter hash (nil without further key predicates) and the table it
// inserts into.
type buildState struct {
	key      keyFn
	filter   filterFn
	t        *joinTable
	inserted int
}

// buildRows inserts rows [lo,hi) of the build side into the state's table
// under their row indices, skipping NULL keys, and records each inserted
// row's filter hash.
func (st *buildState) buildRows(rows []table.Row, lo, hi int, budget *Budget) error {
	var pace pacer
	for i := lo; i < hi; i++ {
		// Building produces nothing but must still honor the deadline.
		if err := pace.tick(budget); err != nil {
			return err
		}
		k, h := st.key(rows[i])
		if k.IsNull() {
			continue
		}
		st.inserted++
		ri := int32(i)
		st.t.next[ri] = -1
		if st.filter != nil {
			st.t.filter[ri] = st.filter(rows[i])
		}
		st.t.add(h, k, ri, ri, st.t.next)
	}
	return pace.done(budget)
}

// build hashes the build rows into one table. Each of w workers inserts a
// contiguous chunk of the rows (global row indices) into a private table, and
// the tables merge in worker order: every entry of a later worker's table is
// added to the first's as one chain, a splice of two links, so a merge costs
// the distinct keys of a chunk, not its rows. Because chunks are contiguous
// and ascending, that merge restores both invariants of a single pass exactly
// — entries in global first-occurrence order, per-key row lists ascending —
// so the table is the same at every w. All of them link their rows through
// one next slice, made here — as is, when the join has further key
// predicates (filterOf non-nil), the slice of per-row filter hashes, which is
// indexed and shared the same way and which no merge touches. One worker is
// one sequential pass over the rows with nothing to merge.
// Returns the table and the number of non-NULL keys inserted.
func (e *Exec) build(op *obs.Span, rows []table.Row, keyOf func() keyFn, filterOf func() filterFn, w int, budget *Budget) (*joinTable, int, error) {
	next := freeLinks.take(len(rows))
	var filter []uint64
	if filterOf != nil {
		filter = freeFilters.take(len(rows))
	}
	parts := make([]*buildState, w)
	err := e.fanOut(op, len(rows), w, func(worker, lo, hi int) error {
		st := &buildState{key: keyOf(), t: &joinTable{hashTable: newHashTable(hi - lo + 1), next: next, filter: filter}}
		if filterOf != nil {
			st.filter = filterOf()
		}
		parts[worker] = st
		return st.buildRows(rows, lo, hi, budget)
	})
	inserted := 0
	for _, p := range parts {
		inserted += p.inserted
	}
	if err != nil {
		return nil, inserted, err
	}
	// The merge adds at most every later table's entries to the first, so
	// the first takes room for all of them from the free list before it
	// starts, and no add reallocates its entries.
	merged := parts[0].t
	total := 0
	for _, p := range parts {
		total += len(p.t.entries)
	}
	if total > cap(merged.entries) {
		merged.entries = freeEntries.grow(merged.entries, total, poisonEntries)
	}
	for _, p := range parts[1:] {
		for _, en := range p.t.entries {
			merged.add(en.hash, en.key, en.head, en.tail, next)
		}
		e.held.tables = append(e.held.tables, p.t.hashTable)
	}
	return merged, inserted, nil
}
