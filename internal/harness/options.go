// Package harness runs the paper's evaluation (§6): it wraps every
// optimization option behind one interface, executes benchmark suites under
// wall-clock and tuple budgets, aggregates timeout/mean/median/max rows, and
// prints each of the paper's tables and figures.
package harness

import (
	"errors"
	"math"
	"time"

	"monsoon/internal/core"
	"monsoon/internal/cost"
	"monsoon/internal/engine"
	"monsoon/internal/obs"
	"monsoon/internal/opt"
	"monsoon/internal/plan"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/skinner"
	"monsoon/internal/stats"
	"monsoon/internal/table"
)

// QuerySpec is one benchmark query bound to its dataset. Hand, when present,
// is the hand-written best plan (OTT only).
type QuerySpec struct {
	Q    *query.Query
	Cat  *table.Catalog
	Hand *plan.Node
}

// Outcome reports one (option, query) run.
type Outcome struct {
	// Time is the measured wall time (optimization + statistics collection
	// + execution; offline statistics excluded per the paper's rules).
	Time time.Duration
	// TimedOut marks a run that exceeded the deadline or tuple budget.
	TimedOut bool
	// Rows and Value describe the query result (valid when !TimedOut).
	Rows  int
	Value float64
	// Produced is the total §4.4 cost paid (objects produced), including
	// discarded work.
	Produced float64
	// MCTSTime, SigmaTime and ExecTime are the Monsoon component breakdown
	// (Table 8); zero for other options.
	MCTSTime, SigmaTime, ExecTime time.Duration
	// QErrJoins, QErrGeo and QErrMax summarize the run's estimate-vs-actual
	// records: the number of join nodes whose cardinality was both predicted
	// and observed, and the geometric mean and maximum of their *finite*
	// q-errors. Unboundedly wrong estimates — one side empty, the other not,
	// or beyond the 1e12 clamp — are counted in QErrMisses instead, so they
	// cannot poison the aggregates. Zero for options that record no
	// estimates.
	QErrJoins  int
	QErrGeo    float64
	QErrMax    float64
	QErrMisses int
	// CacheHits and CacheMisses count plan-cache consultations (Monsoon
	// with a cache attached only; zero otherwise).
	CacheHits, CacheMisses int
	// Replans counts mid-query re-optimizations (Monsoon with a replan
	// threshold configured only; zero otherwise).
	Replans int
	// Err carries non-budget failures (always a bug: surfaced, not hidden).
	Err error
}

// Option is one §6.2.2 optimization strategy.
type Option interface {
	Name() string
	// Run optimizes and executes the query, honoring timeout and maxTuples
	// (0 disables either bound).
	Run(spec QuerySpec, timeout time.Duration, maxTuples float64, seed int64) Outcome
}

// newBudget starts the measured window.
func newBudget(timeout time.Duration, maxTuples float64) *engine.Budget {
	b := &engine.Budget{MaxTuples: maxTuples}
	if timeout > 0 {
		b.Deadline = time.Now().Add(timeout)
	}
	return b
}

func finish(start time.Time, b *engine.Budget, err error, out Outcome) Outcome {
	out.Time = time.Since(start)
	out.Produced = b.Produced()
	if err != nil {
		if errors.Is(err, engine.ErrBudget) {
			out.TimedOut = true
		} else {
			out.Err = err
		}
	}
	return out
}

// baseStats is the statistics every option starts from: the raw base-table
// counts (§4.1).
func baseStats(spec QuerySpec) *stats.Store {
	st := stats.New()
	engine.New(spec.Cat).SeedBaseStats(spec.Q, st)
	return st
}

// planAndExec is the shared tail of the cost-based options. It plans and
// executes in ex, so ex's tracer covers both the optimize span and the
// execution operators.
func planAndExec(spec QuerySpec, ex *engine.Exec, st *stats.Store, start time.Time, b *engine.Budget) Outcome {
	dv := &cost.Deriver{Q: spec.Q, St: st, Miss: cost.DefaultMiss(0.1), Obs: ex.Obs}
	tree, err := opt.BestPlan(spec.Q, dv)
	if err != nil {
		return finish(start, b, err, Outcome{})
	}
	return execPlan(spec, ex, tree, start, b)
}

// execPlan executes one fixed plan in ex and aggregates its result.
func execPlan(spec QuerySpec, ex *engine.Exec, tree *plan.Node, start time.Time, b *engine.Budget) Outcome {
	rel, _, err := ex.ExecTree(spec.Q, tree, b)
	if err != nil {
		return finish(start, b, err, Outcome{})
	}
	v, err := engine.FinalAggregate(spec.Q, rel)
	return finish(start, b, err, Outcome{Rows: rel.Count(), Value: v})
}

// Postgres is the full-statistics baseline (option 7): exact statistics
// collected offline and not counted toward the measured time.
type Postgres struct{}

// Name implements Option.
func (Postgres) Name() string { return "Postgres" }

// Run implements Option.
func (Postgres) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, _ int64) Outcome {
	st := opt.CollectFullStats(spec.Q, spec.Cat) // offline, untimed
	start := time.Now()
	b := newBudget(timeout, maxTuples)
	return planAndExec(spec, engine.New(spec.Cat).NewExec(engine.ExecConfig{}), st, start, b)
}

// Defaults optimizes with the magic constant d = 0.1·c (option 4).
type Defaults struct{}

// Name implements Option.
func (Defaults) Name() string { return "Defaults" }

// Run implements Option.
func (Defaults) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, _ int64) Outcome {
	start := time.Now()
	b := newBudget(timeout, maxTuples)
	return planAndExec(spec, engine.New(spec.Cat).NewExec(engine.ExecConfig{}), baseStats(spec), start, b)
}

// Greedy is the size-only left-deep heuristic (option 3).
type Greedy struct{}

// Name implements Option.
func (Greedy) Name() string { return "Greedy" }

// Run implements Option.
func (Greedy) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, _ int64) Outcome {
	start := time.Now()
	b := newBudget(timeout, maxTuples)
	tree, err := opt.GreedyPlan(spec.Q, baseStats(spec))
	if err != nil {
		return finish(start, b, err, Outcome{})
	}
	return execPlan(spec, engine.New(spec.Cat).NewExec(engine.ExecConfig{}), tree, start, b)
}

// OnDemand computes HLL statistics after the query is issued (option 1),
// paying the scan before optimizing.
type OnDemand struct {
	// Sink, when non-nil, receives the run's spans: the collection pass, the
	// optimize call and the engine operators.
	Sink obs.EventSink
}

// Name implements Option.
func (OnDemand) Name() string { return "On Demand" }

// Run implements Option.
func (o OnDemand) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, _ int64) Outcome {
	start := time.Now()
	b := newBudget(timeout, maxTuples)
	ex := engine.New(spec.Cat).NewExec(engine.ExecConfig{Obs: obs.NewTracer(o.Sink)})
	st, err := opt.CollectOnDemand(spec.Q, ex, b)
	if err != nil {
		return finish(start, b, err, Outcome{})
	}
	return planAndExec(spec, ex, st, start, b)
}

// Sampling is the block-sampling + GEE option (option 2).
type Sampling struct {
	Cfg opt.SamplingConfig
	// Sink, when non-nil, receives the run's spans: the sampling pass, the
	// optimize call and the engine operators.
	Sink obs.EventSink
}

// Name implements Option.
func (Sampling) Name() string { return "Sampling" }

// Run implements Option.
func (s Sampling) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, seed int64) Outcome {
	start := time.Now()
	b := newBudget(timeout, maxTuples)
	ex := engine.New(spec.Cat).NewExec(engine.ExecConfig{Obs: obs.NewTracer(s.Sink)})
	st, err := opt.CollectSampling(spec.Q, ex, b, s.Cfg, randx.New(randx.Derive(seed, "sampling")))
	if err != nil {
		return finish(start, b, err, Outcome{})
	}
	return planAndExec(spec, ex, st, start, b)
}

// Skinner is the Skinner-G stand-in (option 5).
type Skinner struct {
	Cfg skinner.Config
}

// Name implements Option.
func (Skinner) Name() string { return "SkinnerDB" }

// Run implements Option.
func (s Skinner) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, seed int64) Outcome {
	start := time.Now()
	b := newBudget(timeout, maxTuples)
	cfg := s.Cfg
	cfg.Seed = seed
	res, err := skinner.Run(spec.Q, engine.New(spec.Cat).NewExec(engine.ExecConfig{}), b, cfg)
	return finish(start, b, err, Outcome{Rows: res.Rows, Value: res.Value})
}

// qerrSink accumulates join q-errors from the driver's estimate events; it
// is the cheapest possible consumer of the structured stream (no spans are
// retained). Unboundedly wrong estimates (one side empty — q = +Inf — or
// beyond the clamp) are counted as misses rather than folded into the
// aggregates, so one empty intermediate cannot swallow the geometric mean or
// render the max as "inf".
type qerrSink struct {
	logSum float64
	n      int
	max    float64
	misses int
}

func (qs *qerrSink) Emit(ev obs.Event) {
	if ev.Type != obs.EvEstimate || !ev.Est.Join {
		return
	}
	qs.n++
	q := ev.Est.QError
	if ev.Est.Miss || obs.QErrorIsMiss(q) {
		qs.misses++
		return
	}
	qs.logSum += math.Log(q)
	if q > qs.max {
		qs.max = q
	}
}

func (qs *qerrSink) geo() float64 {
	fin := qs.n - qs.misses
	if fin == 0 {
		return 0
	}
	return math.Exp(qs.logSum / float64(fin))
}

// Monsoon is the paper's optimizer (option 6), and with Label set one of the
// ablation's variants of it.
type Monsoon struct {
	// Label, when set, is the option's name.
	Label string
	// Config is what every run starts from. Run sets its Seed from its
	// arguments and tees its Sink into the q-error summary the Outcome
	// reports, so the summary is collected whether or not a Sink is set.
	core.Config
}

// Name implements Option.
func (m Monsoon) Name() string {
	switch {
	case m.Label != "":
		return m.Label
	case m.Prior != nil && m.Prior.Name() != prior.Default().Name():
		return "Monsoon(" + m.Prior.Name() + ")"
	}
	return "Monsoon"
}

// Run implements Option. Each session opens its own execution scopes, whose
// tracer and registry are Sink's and Metrics'.
func (m Monsoon) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, seed int64) Outcome {
	start := time.Now()
	b := newBudget(timeout, maxTuples)
	qs := &qerrSink{}
	cfg := m.Config
	cfg.Seed = seed
	cfg.Sink = obs.Multi(m.Sink, qs)
	res, err := core.Run(spec.Q, engine.New(spec.Cat), b, cfg)
	out := Outcome{
		Rows: res.Rows, Value: res.Value,
		MCTSTime: res.PlanTime, SigmaTime: res.SigmaTime, ExecTime: res.ExecTime,
		QErrJoins: qs.n, QErrGeo: qs.geo(), QErrMax: qs.max, QErrMisses: qs.misses,
		CacheHits: res.CacheHits, CacheMisses: res.CacheMisses, Replans: res.Replans,
	}
	return finish(start, b, err, out)
}

// HandWritten executes the spec's hand-written plan (the OTT baseline row).
type HandWritten struct{}

// Name implements Option.
func (HandWritten) Name() string { return "Hand-written" }

// Run implements Option.
func (HandWritten) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, _ int64) Outcome {
	start := time.Now()
	b := newBudget(timeout, maxTuples)
	return execPlan(spec, engine.New(spec.Cat).NewExec(engine.ExecConfig{}), spec.Hand, start, b)
}
