// Package engine executes plan trees against stored tables: scans with
// pushed-down selections, hash joins on opaque UDF terms, nested-loop
// products with residual predicates (the only option when a multi-table UDF
// crosses the join), materialization of tree roots, and the Σ statistics
// collection operator (§4.2), which takes one extra pass over a materialized
// result running HyperLogLog sketches over every evaluable UDF term.
//
// Operators are connected as a streaming batch pipeline (stream.go): rows
// flow between stages in bounded batches, so only pipeline-breakers (the
// hash-join build side, the tree root's materialize) hold a whole
// intermediate in memory at once.
//
// The engine's accounting is aligned with the paper's cost model (§4.4):
// Produced counts the objects emitted by every operator — filtered leaf
// outputs, join outputs, and the extra Σ pass — so that the optimizer's
// simulated cost and the engine's real cost are the same quantity.
package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/stats"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// ErrBudget is returned when a query exceeds its wall-clock deadline or its
// tuple budget; the harness reports it as a timeout.
var ErrBudget = errors.New("engine: execution budget exhausted")

// Budget bounds one query execution. Zero values disable a bound. A single
// Budget is shared across every EXECUTE step of a multi-step query, and —
// since the engine's partitionable operators charge it from worker
// goroutines, in runs of rows (tally) — its accounting is atomic. Deadline
// and MaxTuples must be set before execution starts and not mutated
// afterwards.
type Budget struct {
	Deadline  time.Time
	MaxTuples float64

	produced atomic.Int64
	// work counts rows that were examined and produced nothing (poll); it
	// exists only to pace the deadline check on paths that never charge.
	work atomic.Int64
}

// NewBudget starts a budget whose deadline lies timeout from now and whose
// tuple cap is maxTuples; 0 disables either bound.
func NewBudget(timeout time.Duration, maxTuples float64) *Budget {
	b := &Budget{MaxTuples: maxTuples}
	if timeout > 0 {
		b.Deadline = time.Now().Add(timeout)
	}
	return b
}

// pollQuantum is how many units — tuples charged, or rows polled — pass
// between two looks at the clock, as a shift: the deadline is read when a
// counter crosses a multiple of 1<<pollQuantum.
const pollQuantum = 10

// pollStride is how many unproductive rows a kernel lets pass between two
// calls of poll; see pacer.
const pollStride = 64

// Charge accounts n produced tuples and reports ErrBudget when a bound is
// exceeded. Safe for concurrent use. It is one atomic add: the tuple bound is
// checked against the sum the add returns, so it trips on exactly the tuple
// that exceeds it, and the deadline is read only when that sum crosses a
// multiple of 1,024 — on every 16th run a kernel charges (tally), every
// 1,024th single row, and every charge of a slab that large.
func (b *Budget) Charge(n int) error {
	if b == nil {
		return nil
	}
	p := b.produced.Add(int64(n))
	if b.MaxTuples > 0 && float64(p) > b.MaxTuples {
		return ErrBudget
	}
	if crossed(p, n) && b.expired() {
		return ErrBudget
	}
	return nil
}

// poll accounts n rows of work that produced nothing — probe rows without a
// match, build rows, rejected nested-loop pairs — so that a kernel which
// never charges still sees the deadline, and a tuple bound another worker
// has already exceeded. The clock is read when the polled total crosses a
// multiple of 1,024.
func (b *Budget) poll(n int) error {
	if b == nil {
		return nil
	}
	if b.MaxTuples > 0 && float64(b.produced.Load()) > b.MaxTuples {
		return ErrBudget
	}
	if crossed(b.work.Add(int64(n)), n) && b.expired() {
		return ErrBudget
	}
	return nil
}

// crossed reports whether a counter that has just reached total by adding n
// passed a polling boundary on the way.
func crossed(total int64, n int) bool {
	return total>>pollQuantum != (total-int64(n))>>pollQuantum
}

func (b *Budget) expired() bool {
	return !b.Deadline.IsZero() && time.Now().After(b.Deadline)
}

// pacer keeps a kernel's polling off its per-row path: tick counts one
// unproductive row and polls the budget once per pollStride of them, done
// polls the remainder when the kernel returns. That is one atomic add per 64
// rows, and a deadline is noticed within 1,024 + 64 rows of unproductive work.
type pacer struct{ n int }

func (p *pacer) tick(b *Budget) error {
	if p.n++; p.n < pollStride {
		return nil
	}
	p.n = 0
	return b.poll(pollStride)
}

func (p *pacer) done(b *Budget) error { return b.poll(p.n) }

// chargeRun is how many emitted rows a kernel counts before it charges them;
// see tally.
const chargeRun = 64

// runMargin is how far below MaxTuples the charged total must stand for a
// kernel to open a run of chargeRun rows: room for the open runs of 1,024
// workers at once. Nearer the bound every row is charged as it is emitted.
const runMargin = chargeRun << 10

// tally keeps a kernel's tuple charges off its per-row path. count counts one
// emitted row and charges a whole run at once when the row closes it: one
// atomic add on the counter every worker of a fan-out shares per chargeRun
// rows, not per row. flush charges the open rest when the kernel returns, on
// every path, so nothing is owed between two kernel calls and a clean run
// charges the totals of charging row by row. A run opens only while the
// charged total is runMargin below MaxTuples, where no worker's open run can
// cross it; nearer, each row is a run of one, so with one worker the bound
// still trips on exactly the tuple that exceeds it. Charge reads the deadline
// whenever the charged sum crosses a multiple of 1,024, in a run or not.
type tally struct {
	n, run int // rows counted and not yet charged; the open run's length
}

func (t *tally) count(b *Budget) error {
	if t.n == 0 {
		t.run = b.runLen()
	}
	if t.n++; t.n < t.run {
		return nil
	}
	t.n = 0
	return b.Charge(t.run)
}

// flush charges the rows counted since the last charge. A kernel defers it;
// a charge that fails becomes the kernel's error unless it has one already.
func (t *tally) flush(b *Budget, err *error) {
	if t.n == 0 {
		return
	}
	n := t.n
	t.n = 0
	if cerr := b.Charge(n); *err == nil {
		*err = cerr
	}
}

// runLen is the length of the run a kernel opens: chargeRun, or 1 once the
// charged total is within runMargin of MaxTuples.
func (b *Budget) runLen() int {
	if b != nil && b.MaxTuples > 0 && float64(b.produced.Load()+runMargin) > b.MaxTuples {
		return 1
	}
	return chargeRun
}

// Produced reports the tuples charged so far.
func (b *Budget) Produced() float64 {
	if b == nil {
		return 0
	}
	return float64(b.produced.Load())
}

// SigmaObs is one distinct-value measurement produced by a Σ operator.
type SigmaObs struct {
	Term int
	Expr string
	D    float64
}

// ExecResult reports what one tree execution observed.
type ExecResult struct {
	// Produced is the total number of objects emitted by the tree's
	// operators, including the extra Σ pass (the §4.4 cost).
	Produced float64
	// Counts holds the hardened cardinality of every node in the tree,
	// keyed by expression (alias-set) key.
	Counts map[string]float64
	// Times holds the inclusive wall time of every node in the tree, keyed
	// like Counts — the per-operator numbers EXPLAIN ANALYZE annotates.
	Times map[string]time.Duration
	// Sigma holds distinct-value measurements when the root carried Σ.
	Sigma []SigmaObs
	// SigmaTime is the portion of wall time spent in the Σ pass.
	SigmaTime time.Duration
}

// ExecConfig is the per-execution observation state. Every Session (and
// every daemon request) carries its own copy inside an Exec scope, so
// concurrent Sessions on one shared engine cannot clobber each other's
// tracer; the engine's catalog stays shared. The partitionable operators'
// width is runtime.GOMAXPROCS(0), read per operator.
type ExecConfig struct {
	// Obs, when non-nil, receives one span per operator (scan, reuse,
	// hash-build/probe, nested loop, Σ pass) with rows-in/rows-out and wall
	// time. Nil (the default) costs nothing: every tracer call no-ops.
	Obs *obs.Tracer
	// testBatch, when positive, replaces the pipeline batch (batchRows) so
	// this package's tests can cross batch boundaries on small data. It is
	// a test seam, not an option: nothing outside the package can set it.
	testBatch int
}

// Exec is one execution scope over a shared Engine: its own ExecConfig plus
// its own materialized-expression store (the MDP's Re set). Scopes are cheap
// to create, not safe for concurrent use individually, and fully independent
// of each other — N Sessions over one Engine get N Execs and never share
// mutable state.
type Exec struct {
	ExecConfig
	eng  *Engine
	mats map[string]*table.Relation
	held held
}

// Engine executes plans for one dataset: the catalog, shared and read-only.
// Nothing on it is mutable; every execution runs in a scope of its own made by
// NewExec.
type Engine struct {
	Cat *table.Catalog
}

// New creates an engine over a catalog of stored base tables.
func New(cat *table.Catalog) *Engine { return &Engine{Cat: cat} }

// NewExec creates an isolated execution scope: the given config, used as is,
// plus a fresh materialization store.
func (e *Engine) NewExec(cfg ExecConfig) *Exec {
	return &Exec{ExecConfig: cfg, eng: e, mats: make(map[string]*table.Relation)}
}

// Engine returns the shared engine this scope executes against.
func (e *Exec) Engine() *Engine { return e.eng }

// Materialized returns the materialized relation for an expression key.
func (e *Exec) Materialized(key string) (*table.Relation, bool) {
	r, ok := e.mats[key]
	return r, ok
}

// Release ends the lifetime of everything the scope's executions produced:
// the slabs, join tables and row-header buffers they took go back to the
// engine's free lists (recycle.go), and the materialized intermediates are
// dropped. A row of any relation the scope returned must not be read
// afterwards. The scope itself may run again.
func (e *Exec) Release() {
	e.held.release()
	clear(e.mats)
}

// SeedBaseStats binds st to q's alias universe (stats.Store.Bind) and records
// the raw cardinality of every base table referenced by q into it — the
// statistics assumed known at the start (§4.1).
func (e *Engine) SeedBaseStats(q *query.Query, st *stats.Store) {
	st.Bind(q.Aliases())
	for _, r := range q.Rels {
		st.SetCount(stats.RawKey(r.Alias), float64(e.Cat.MustGet(r.Table).Count()))
	}
}

// ExecTree executes one plan tree through the streaming batch pipeline
// (stream.go), materializes and registers its root, and returns the result
// relation plus observations. The root materialize is a deliberate pipeline
// breaker: the MDP's Re store and the plan cache key whole relations. Budget
// overruns abort with ErrBudget; partial results are discarded — the scope
// stops listing their buffers — but counts already observed are returned so
// the harness can report progress.
func (e *Exec) ExecTree(q *query.Query, n *plan.Node, budget *Budget) (*table.Relation, *ExecResult, error) {
	res := &ExecResult{Counts: make(map[string]float64), Times: make(map[string]time.Duration)}
	msp := e.Obs.Start(obs.KMaterialize, n.String()).SetStr("expr", n.Key())
	mark := e.held.mark()
	fail := func(err error) (*table.Relation, *ExecResult, error) {
		e.held.forget(mark)
		msp.SetStr("err", err.Error()).SetProduced(res.Produced).End()
		return nil, res, err
	}
	it, schema, err := e.open(q, n, budget, res, nil, true)
	if err != nil {
		return fail(err)
	}
	var out []table.Row
	for {
		b, err := it.Next()
		if err != nil {
			it.Close(err)
			return fail(err)
		}
		if b == nil {
			break
		}
		// out is this loop's own buffer, listed on held only below: an
		// outgrown step of it has no reader left.
		out = append(growRows(out, len(b)), b...)
	}
	it.Close(nil)
	e.held.keepRows(out)
	rel := table.NewRelation(n.Key(), schema, out)
	if n.Sigma {
		start := time.Now()
		if err := e.collectSigma(q, n, rel, budget, res); err != nil {
			return fail(err)
		}
		res.SigmaTime = time.Since(start)
	}
	e.mats[n.Key()] = rel
	msp.SetRows(0, rel.Count()).SetProduced(res.Produced).End()
	return rel, res, nil
}

// entry is one distinct join key of a hash table: the key, its full hash, and
// the first and last build row that carry it. The rows between them are
// linked through the table's next slice, in ascending row order.
type entry struct {
	hash       uint64
	key        value.Value
	head, tail int32
}

// hashTable is the open-addressing table of a hash-join build. entries
// holds the distinct keys in first-occurrence order; slots maps a position to
// an entry (index + 1, 0 = empty) and is probed linearly from the key's home
// slot. A key is never removed and a new entry takes the first empty slot
// after its home, so entries that share a hash — they share a home — are met
// in the order they were inserted, from insert and from a probe alike: the
// collision-chain order a probe's output order depends on. After the build
// phase the table is read-only, so probe workers share it without locks.
type hashTable struct {
	slots   []int32
	shift   uint // 64 − log2(len(slots))
	entries []entry
}

// newHashTable makes a table for hint build rows: slots for a load of at most
// one half and room for as many entries, should every row carry a key of its
// own, so a build within its hint never moves an entry. Rows that share keys
// leave the rest of that room untouched.
func newHashTable(hint int) hashTable {
	bits := uint(3)
	for 1<<bits < 2*hint {
		bits++
	}
	return hashTable{slots: freeSlots.take(1 << bits), shift: 64 - bits, entries: freeEntries.take(hint)[:0]}
}

// home is where the probe sequence of hash h starts. The multiplication mixes
// every bit of h into the top ones, which are the ones kept.
func (t *hashTable) home(h uint64) int {
	return int((h * 0x9E3779B97F4A7C15) >> t.shift)
}

// add chains the build rows head..tail (already linked through next, in
// ascending order) under key k, whose hash is h: appended to the key's entry
// if one exists among the entries of that hash, under a fresh entry
// otherwise. A build adds one row at a time; a merge adds another table's
// whole chain at once. Adding rows in ascending order yields entries in
// first-occurrence order, each with an ascending row list.
func (t *hashTable) add(h uint64, k value.Value, head, tail int32, next []int32) {
	if 2*(len(t.entries)+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for s := t.home(h); ; s = (s + 1) & mask {
		ei := t.slots[s]
		if ei == 0 {
			t.entries = append(t.entries, entry{hash: h, key: k, head: head, tail: tail})
			t.slots[s] = int32(len(t.entries))
			return
		}
		if e := &t.entries[ei-1]; e.hash == h && e.key.Equal(k) {
			next[e.tail] = head
			e.tail = tail
			return
		}
	}
}

// grow doubles the slots and re-inserts the entries in order, which keeps
// entries of one hash in insertion order along their probe sequence.
func (t *hashTable) grow() {
	t.slots = freeSlots.take(2 * len(t.slots))
	t.shift--
	mask := len(t.slots) - 1
	for i := range t.entries {
		s := t.home(t.entries[i].hash)
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(i + 1)
	}
}

// joinTable is a hash-join build: the hashTable of its distinct keys plus the
// per-row links and filter hashes the keys' rows are reached through.
//
// next links the build rows of one key: next[i] is the build-row index that
// follows row i under its key, −1 at the end of a chain. There is one per
// build side, shared — while building — by every worker's table: a row
// belongs to one key and is inserted by one worker, so they write disjoint
// indices. Rows with a NULL key are in no chain; their slots are never read.
//
// filter, nil unless the join has key predicates beyond the one the table is
// keyed on, holds per build row one hash of those predicates' build terms
// (filterFn), indexed and shared exactly as next is. It is no part of the
// table: entries, slots and chains are those of a single-key join, and a
// probe only consults it to pass over chain rows it need not copy.
type joinTable struct {
	hashTable
	next   []int32
	filter []uint64
}

// collectSigma runs the Σ pass: one more scan of the materialized result,
// feeding every evaluable UDF term through an HLL sketch. Identity terms are
// included — they are just another opaque function to the optimizer. Every
// row is charged exactly once whichever worker visits it, and the per-worker
// sketches merge register-wise (a per-register max), so budget totals and
// estimates are the same at any worker count.
func (e *Exec) collectSigma(q *query.Query, n *plan.Node, rel *table.Relation, budget *Budget, res *ExecResult) error {
	var terms []*query.Term
	for _, t := range q.Terms() {
		if t.Aliases.SubsetOf(n.Aliases()) && t.Fn.Evaluable(rel.Schema) {
			terms = append(terms, t)
		}
	}
	sp := e.Obs.Start(obs.KSigma, n.Key()).SetNum("terms", float64(len(terms)))
	states, _ := newPool(e, func() (*sigmaState, error) { return newSigmaState(terms, rel.Schema), nil })
	err := states.run(sp, rel.Count(), e.workers(rel.Count()), func(st *sigmaState, lo, hi int) error {
		return st.sigmaRows(rel.Rows[lo:hi], budget)
	})
	if err != nil {
		sp.SetRows(rel.Count(), 0).SetStr("err", err.Error()).End()
		return err
	}
	res.Produced += float64(rel.Count()) // the extra pass, §4.4
	for i, t := range terms {
		h := states.states[0].hs[i]
		for _, st := range states.states[1:] {
			h.Merge(st.hs[i])
		}
		res.Sigma = append(res.Sigma, SigmaObs{Term: t.ID, Expr: n.Key(), D: h.Estimate()})
	}
	sp.SetRows(rel.Count(), len(terms)).SetProduced(float64(rel.Count())).End()
	return nil
}

// FinalAggregate computes the query's output over the completed join result.
func FinalAggregate(q *query.Query, rel *table.Relation) (float64, error) {
	switch q.Out.Kind {
	case query.AggCount:
		return float64(rel.Count()), nil
	case query.AggSum:
		pos, ok := rel.Schema.Lookup(q.Out.Attr)
		if !ok {
			return 0, fmt.Errorf("engine: SUM attribute %q not in result schema", q.Out.Attr)
		}
		sum := 0.0
		for _, row := range rel.Rows {
			sum += row[pos].AsFloat()
		}
		return sum, nil
	default:
		return 0, fmt.Errorf("engine: unknown aggregate kind %d", q.Out.Kind)
	}
}
