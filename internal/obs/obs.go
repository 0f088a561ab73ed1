// Package obs is the repository's zero-dependency observability layer: a
// span-based tracer over the Monsoon MDP loop (one span per query run, nested
// spans for every MDP action — MCTS planning call, Σ statistics pass, EXECUTE
// step — and every engine operator), a lightweight metrics registry, and
// estimate-vs-actual cardinality records (per-join q-error), the single most
// diagnostic signal for optimizer quality.
//
// Everything is designed around one rule: when no sink is installed the layer
// must cost (almost) nothing. NewTracer(nil) returns a nil *Tracer, and every
// method on a nil Tracer or nil Span is a no-op, so instrumented code calls
// unconditionally:
//
//	sp := tr.Start(obs.KScan, "R").SetRows(in, out)
//	defer sp.End()
//
// Events flow to an EventSink. The package ships four: Collector (retains
// everything in memory), NewJSONL (streams JSON lines), MessageSink (hands
// trace lines to a func(string) callback), and Multi (fan-out).
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds emitted by the instrumented layers. Driver-level kinds first,
// then engine operators, then optimizer-level kinds.
const (
	// KQuery covers one whole core.Run (root span).
	KQuery = "query"
	// KPlan is one MCTS planning call (rollout count, tree depth attached).
	KPlan = "plan"
	// KAction is one real-world MDP action (name = action key).
	KAction = "action"
	// KMaterialize covers the execution of one planned tree.
	KMaterialize = "materialize"
	// KScan is a base-table scan with pushed-down selections.
	KScan = "scan"
	// KReuse is a pass over an already-materialized expression.
	KReuse = "reuse"
	// KHashBuild is the build phase of a hash join.
	KHashBuild = "hash-build"
	// KHashProbe is the probe phase of a hash join.
	KHashProbe = "hash-probe"
	// KNestedLoop is a nested-loop (residual/cross-product) join.
	KNestedLoop = "nested-loop"
	// KSigma is the Σ statistics-collection pass.
	KSigma = "sigma"
	// KAggregate is the final aggregate over the materialized result.
	KAggregate = "aggregate"
	// KOptimize is one classical planning call (DP or greedy enumeration).
	KOptimize = "optimize"
	// KCollect is one offline/online statistics-collection pass (On-Demand
	// scans, Sampling passes).
	KCollect = "collect"
	// KJoin is the umbrella span of one join node of an executed tree: it
	// covers the execution of both children and the join phases
	// (hash-build/hash-probe or nested-loop), so the span tree reproduces the
	// plan tree — materialize → join → {child operators, phases}.
	KJoin = "join"
	// KPlanShard is one shard of a root-parallel MCTS search, parented to the
	// KPlan span that fanned it out. Shard count is derived from the rollout
	// budget alone, so shard-span counts are machine-independent.
	KPlanShard = "plan-shard"
	// KWorker is one worker of a parallel operator fan-out, parented to the
	// operator span. Worker counts depend on GOMAXPROCS, so — unlike every
	// other kind, the catalog's -shards layout included — KWorker span counts
	// are machine-dependent; trace-diff tooling excludes them by default.
	KWorker = "worker"
)

// AttrCacheHit is the string attribute set on KPlan spans when a plan cache
// is configured: "true" on spans whose decision was served by a memoized
// pick, "false" on spans that ran MCTS. Absent when no cache is
// attached to the run.
const AttrCacheHit = "cache_hit"

// AttrPlanWorkers is the numeric attribute set on KPlan spans when the
// root-parallel MCTS search fanned out: the number of OS threads the shards
// ran on, at most GOMAXPROCS and the shard count. Absent on serial
// searches (mirroring the engine operators' "workers" attribute), and
// irrelevant to the chosen plan — every worker count picks byte-identical
// plans.
const AttrPlanWorkers = "plan_workers"

// Span is one timed region. IDs are deterministic: they are assigned in
// Start/StartChild call order, and because spans are only ever opened by the
// coordinating goroutine (worker and shard spans are pre-created before
// fan-out and ended by the coordinator in index order), a repeated run
// assigns the same IDs to the same spans. Parent is 0 for the root; Trace
// identifies the Tracer (one query run) the span belongs to, so sinks shared
// across runs can group spans back into per-query trees. Rows and Produced
// carry the operator's data flow: rows consumed, rows emitted, and objects
// charged against the engine.Budget (the §4.4 cost). Num and Str hold
// kind-specific attributes (MCTS rollouts, plan strings, estimate/actual
// cardinalities, ...). Attribute setters and End are mutex-guarded, so engine
// workers may annotate a span concurrently; after End the span is owned by
// the sink and must not be mutated.
type Span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent,omitempty"`
	Trace    int64              `json:"trace,omitempty"`
	Kind     string             `json:"kind"`
	Name     string             `json:"name"`
	Start    time.Time          `json:"start"`
	Dur      time.Duration      `json:"dur_ns"`
	RowsIn   int                `json:"rows_in,omitempty"`
	RowsOut  int                `json:"rows_out,omitempty"`
	Produced float64            `json:"produced,omitempty"`
	Num      map[string]float64 `json:"num,omitempty"`
	Str      map[string]string  `json:"str,omitempty"`

	mu sync.Mutex
	tr *Tracer
}

// SetRows records rows consumed and emitted. Nil-safe; returns the span for
// chaining.
func (sp *Span) SetRows(in, out int) *Span {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	sp.RowsIn, sp.RowsOut = in, out
	sp.mu.Unlock()
	return sp
}

// SetProduced records objects charged against the budget. Nil-safe.
func (sp *Span) SetProduced(n float64) *Span {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	sp.Produced = n
	sp.mu.Unlock()
	return sp
}

// SetNum attaches a numeric attribute. Nil-safe.
func (sp *Span) SetNum(key string, v float64) *Span {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	if sp.Num == nil {
		sp.Num = make(map[string]float64, 4)
	}
	sp.Num[key] = v
	sp.mu.Unlock()
	return sp
}

// AddNum accumulates into a numeric attribute, creating it at v. Nil-safe.
// Streaming operators use this for attributes that grow batch by batch
// (e.g. the total number of worker spans fanned out under one operator).
func (sp *Span) AddNum(key string, v float64) *Span {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	if sp.Num == nil {
		sp.Num = make(map[string]float64, 4)
	}
	sp.Num[key] += v
	sp.mu.Unlock()
	return sp
}

// SetStr attaches a string attribute. Nil-safe.
func (sp *Span) SetStr(key, v string) *Span {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	if sp.Str == nil {
		sp.Str = make(map[string]string, 2)
	}
	sp.Str[key] = v
	sp.mu.Unlock()
	return sp
}

// End stamps the duration and emits the span to the sink. Nil-safe and
// idempotent. Spans opened under this one and never ended (error paths) are
// silently discarded to keep the parent chain consistent.
func (sp *Span) End() { sp.endWith(-1) }

// EndIn ends the span with an explicitly measured duration instead of the
// wall time since Start. Pre-created worker spans use it: the coordinator
// opens them before fan-out (keeping IDs deterministic), each worker records
// its own busy time, and the coordinator ends them in index order (keeping
// emission order deterministic) with the measured duration. Nil-safe and
// idempotent.
func (sp *Span) EndIn(d time.Duration) {
	if d < 0 {
		d = 0
	}
	sp.endWith(d)
}

// endWith implements End/EndIn; d < 0 means "stamp time.Since(Start)".
func (sp *Span) endWith(d time.Duration) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	t := sp.tr
	sp.tr = nil
	if t == nil {
		sp.mu.Unlock()
		return
	}
	if d < 0 {
		d = time.Since(sp.Start)
	}
	sp.Dur = d
	sp.mu.Unlock()
	t.mu.Lock()
	// Pop this span (and any abandoned children above it) off the stack.
	// Spans opened with an explicit parent never joined the stack, so the
	// loop simply finds nothing for them.
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == sp.ID {
			t.stack = t.stack[:i]
			break
		}
	}
	t.mu.Unlock()
	t.emit(Event{Type: EvSpan, Span: sp})
}

// QErrorMissThreshold is the single cutoff past which a q-error stops being a
// graded estimate and becomes a miss — an empty-vs-nonempty disagreement or an
// error so large only its existence is informative. Every consumer shares it:
// the harness Miss column, the monsoon.qerror.misses counter, `monsoon-trace
// report`'s rollup, and the mid-query replan trigger, so trace-derived and
// harness-derived tallies agree record for record.
const QErrorMissThreshold = 1e12

// QErrorIsMiss reports whether a q-error counts as a miss: non-finite (one
// side of the estimate was zero) or at least QErrorMissThreshold.
func QErrorIsMiss(q float64) bool {
	return math.IsInf(q, 0) || math.IsNaN(q) || q >= QErrorMissThreshold
}

// Estimate is one estimate-vs-actual cardinality record: at every EXECUTE the
// driver logs, for each node of each materialized tree, the cardinality the
// optimizer believed (under the prior's expectation) next to the one the
// engine observed, plus the q-error max(e/a, a/e).
type Estimate struct {
	// Expr is the expression (alias-set) key of the plan node.
	Expr string `json:"expr"`
	// Join marks join nodes (leaves/scans are the base cases).
	Join bool `json:"join"`
	// Round is the 1-based EXECUTE round that materialized the node.
	Round int `json:"round"`
	// Est is the optimizer's predicted cardinality, Actual the observed one.
	Est    float64 `json:"est"`
	Actual float64 `json:"actual"`
	// QError is max(Est/Actual, Actual/Est); 1 is a perfect estimate. +Inf
	// when exactly one side is zero.
	QError float64 `json:"q"`
	// Miss marks records whose q-error crossed QErrorMissThreshold (or was
	// non-finite): empty-vs-nonempty disagreements and errors too large to
	// grade. JSONL sinks zero the non-finite QError and rely on this field —
	// JSON has no +Inf — so trace files round-trip miss records exactly.
	Miss bool `json:"miss,omitempty"`
	// Dur is the inclusive wall time the engine spent computing the node,
	// when known — which makes the record a complete EXPLAIN ANALYZE row.
	Dur time.Duration `json:"dur_ns,omitempty"`
}

// QError computes the symmetric estimation error max(e/a, a/e). Both zero is
// a perfect estimate (1); exactly one zero is unboundedly wrong (+Inf).
func QError(est, actual float64) float64 {
	if est == actual {
		return 1
	}
	if est <= 0 || actual <= 0 {
		return math.Inf(1)
	}
	if est > actual {
		return est / actual
	}
	return actual / est
}

// EventType discriminates Event payloads.
type EventType uint8

// The event types.
const (
	// EvSpan carries a completed Span.
	EvSpan EventType = iota
	// EvMessage carries a human-readable trace line, one per real-world MDP
	// action (MessageSink hands them to a line callback).
	EvMessage
	// EvEstimate carries one Estimate record.
	EvEstimate
)

// Event is one observability record delivered to an EventSink.
type Event struct {
	Type EventType
	Span *Span     // set when Type == EvSpan
	Msg  string    // set when Type == EvMessage
	Est  *Estimate // set when Type == EvEstimate
}

// EventSink receives observability events from a run. Implementations must be
// cheap: the driver and engine call Emit on their hot paths. Sinks installed
// on a single run are called sequentially; sinks shared across concurrent
// runs must lock internally (NewJSONL does).
type EventSink interface {
	Emit(Event)
}

// Tracer hands out spans with automatic parent linkage (a stack — the
// instrumented call tree is strictly nested: spans are opened and closed by
// the coordinating goroutine, while engine workers only annotate them). A nil
// Tracer is the off switch: every method no-ops. All state, including sink
// emission, is mutex-guarded, so a single-run sink like Collector needs no
// locking of its own even when the engine executes operators in parallel.
type Tracer struct {
	mu    sync.Mutex
	sink  EventSink
	id    int64
	next  int
	stack []int
}

// traceIDs numbers Tracers process-wide so sinks shared across runs (JSONL
// files, the TraceRing) can group spans back into per-query trees. Sequential
// runs get sequential IDs; concurrently created tracers get unique but
// scheduler-ordered ones.
var traceIDs atomic.Int64

// emit delivers one event to the sink under the tracer's lock, serializing
// concurrent emitters.
func (t *Tracer) emit(ev Event) {
	t.mu.Lock()
	t.sink.Emit(ev)
	t.mu.Unlock()
}

// NewTracer wraps a sink; a nil sink yields a nil (disabled) tracer.
func NewTracer(sink EventSink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink, id: traceIDs.Add(1)}
}

// Active reports whether events are being collected.
func (t *Tracer) Active() bool { return t != nil }

// TraceID reports the tracer's process-unique run identifier (0 when
// disabled), the value stamped into every span's Trace field.
func (t *Tracer) TraceID() int64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Start opens a span under the currently open span (the ambient stack — the
// coordinating goroutine's strictly nested call tree). Nil-safe.
func (t *Tracer) Start(kind, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	sp := &Span{ID: t.next, Trace: t.id, Kind: kind, Name: name, Start: time.Now(), tr: t}
	if len(t.stack) > 0 {
		sp.Parent = t.stack[len(t.stack)-1]
	}
	t.stack = append(t.stack, sp.ID)
	t.mu.Unlock()
	return sp
}

// StartChild opens a span under an explicit parent, bypassing the ambient
// stack — the instrumented layers use it to reproduce a structural tree (the
// plan tree's join nodes, an operator's worker fan-out, a search's shards)
// rather than the coordinator's call nesting. The child does not join the
// stack, so spans opened ambiently while it is live are unaffected. A nil
// parent falls back to Start's ambient behavior. Nil-safe.
func (t *Tracer) StartChild(parent *Span, kind, name string) *Span {
	if t == nil {
		return nil
	}
	if parent == nil {
		return t.Start(kind, name)
	}
	t.mu.Lock()
	t.next++
	sp := &Span{ID: t.next, Parent: parent.ID, Trace: t.id, Kind: kind, Name: name, Start: time.Now(), tr: t}
	t.mu.Unlock()
	return sp
}

// Message emits a legacy trace line. Nil-safe.
func (t *Tracer) Message(line string) {
	if t == nil {
		return
	}
	t.emit(Event{Type: EvMessage, Msg: line})
}

// Estimate emits one estimate-vs-actual record. Nil-safe.
func (t *Tracer) Estimate(e Estimate) {
	if t == nil {
		return
	}
	t.emit(Event{Type: EvEstimate, Est: &e})
}

// Collector is an EventSink that retains everything, for tests, the CLIs'
// EXPLAIN ANALYZE rendering, and post-run analysis.
type Collector struct {
	Spans     []*Span
	Messages  []string
	Estimates []Estimate
}

// Emit implements EventSink.
func (c *Collector) Emit(ev Event) {
	switch ev.Type {
	case EvSpan:
		c.Spans = append(c.Spans, ev.Span)
	case EvMessage:
		c.Messages = append(c.Messages, ev.Msg)
	case EvEstimate:
		c.Estimates = append(c.Estimates, *ev.Est)
	}
}

// SpansOf returns the collected spans of one kind, in completion order.
func (c *Collector) SpansOf(kind string) []*Span {
	var out []*Span
	for _, sp := range c.Spans {
		if sp.Kind == kind {
			out = append(out, sp)
		}
	}
	return out
}

// messageSink adapts the legacy func(string) trace callback: it forwards
// EvMessage payloads verbatim and drops structured events.
type messageSink func(string)

// Emit implements EventSink.
func (f messageSink) Emit(ev Event) {
	if ev.Type == EvMessage {
		f(ev.Msg)
	}
}

// MessageSink wraps a line callback as an EventSink that receives the trace
// lines and nothing else. Returns nil for a nil callback.
func MessageSink(fn func(string)) EventSink {
	if fn == nil {
		return nil
	}
	return messageSink(fn)
}

// multiSink fans events out in order.
type multiSink []EventSink

// Emit implements EventSink.
func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// Multi combines sinks, skipping nils. Zero live sinks yield nil (disabled);
// a single live sink is returned unwrapped.
func Multi(sinks ...EventSink) EventSink {
	var live multiSink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
