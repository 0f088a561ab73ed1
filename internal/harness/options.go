// Package harness runs the paper's evaluation (§6): it wraps every
// optimization option behind one interface, executes benchmark suites under
// wall-clock and tuple budgets, aggregates timeout/mean/median/max rows, and
// prints each of the paper's tables and figures.
package harness

import (
	"errors"
	"fmt"
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
	// Err carries non-budget failures (always a bug: surfaced, not hidden).
	Err error
}

// Option is one §6.2.2 optimization strategy.
type Option interface {
	Name() string
	// Run optimizes and executes the query, honoring timeout and maxTuples
	// (0 disables either bound). sink, when non-nil, receives the run's
	// spans.
	Run(spec QuerySpec, timeout time.Duration, maxTuples float64, seed int64, sink obs.EventSink) Outcome
}

// Planner is an Option that commits to one plan before executing it. Plan
// gathers the statistics the option plans from, charging what that costs to
// budget and tracing it to ex, and picks the plan. The Deriver it returns
// prices the plan's nodes for EXPLAIN.
type Planner interface {
	Option
	Plan(spec QuerySpec, ex *engine.Exec, budget *engine.Budget, seed int64) (*plan.Node, *cost.Deriver, error)
}

// planFunc is Planner.Plan's shape.
type planFunc func(spec QuerySpec, ex *engine.Exec, budget *engine.Budget, seed int64) (*plan.Node, *cost.Deriver, error)

// runPlanned is the measured window of a single-plan option: a budget, an
// execution scope traced to sink, then plan, execute and aggregate.
func runPlanned(planFn planFunc, spec QuerySpec, timeout time.Duration, maxTuples float64, seed int64, sink obs.EventSink) Outcome {
	start := time.Now()
	b := engine.NewBudget(timeout, maxTuples)
	ex := engine.New(spec.Cat).NewExec(engine.ExecConfig{Obs: obs.NewTracer(sink)})
	tree, _, err := planFn(spec, ex, b, seed)
	if err != nil {
		return finish(start, b, err, Outcome{})
	}
	rel, _, err := ex.ExecTree(spec.Q, tree, b)
	if err != nil {
		return finish(start, b, err, Outcome{})
	}
	v, err := engine.FinalAggregate(spec.Q, rel)
	return finish(start, b, err, Outcome{Rows: rel.Count(), Value: v})
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

// defaultsDeriver prices spec's plans on st, resolving what st lacks with the
// magic constant d = 0.1·c.
func defaultsDeriver(spec QuerySpec, ex *engine.Exec, st *stats.Store) *cost.Deriver {
	return &cost.Deriver{Q: spec.Q, St: st, Miss: cost.DefaultMiss(0.1), Obs: ex.Obs}
}

// bestPlan is the cost-based options' planner: the DP over st, priced by
// defaultsDeriver, its optimize span traced to ex.
func bestPlan(spec QuerySpec, ex *engine.Exec, st *stats.Store) (*plan.Node, *cost.Deriver, error) {
	dv := defaultsDeriver(spec, ex, st)
	tree, err := opt.BestPlan(spec.Q, dv)
	return tree, dv, err
}

// Postgres is the full-statistics baseline (option 7): exact statistics
// collected offline and not counted toward the measured time.
type Postgres struct{}

// Name implements Option.
func (Postgres) Name() string { return "Postgres" }

// Run implements Option. The statistics are collected before the measured
// window opens.
func (Postgres) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, seed int64, sink obs.EventSink) Outcome {
	st := opt.CollectFullStats(spec.Q, spec.Cat)
	return runPlanned(func(spec QuerySpec, ex *engine.Exec, _ *engine.Budget, _ int64) (*plan.Node, *cost.Deriver, error) {
		return bestPlan(spec, ex, st)
	}, spec, timeout, maxTuples, seed, sink)
}

// Plan implements Planner.
func (Postgres) Plan(spec QuerySpec, ex *engine.Exec, _ *engine.Budget, _ int64) (*plan.Node, *cost.Deriver, error) {
	return bestPlan(spec, ex, opt.CollectFullStats(spec.Q, spec.Cat))
}

// Defaults optimizes with the magic constant d = 0.1·c (option 4).
type Defaults struct{}

// Name implements Option.
func (Defaults) Name() string { return "Defaults" }

// Run implements Option.
func (d Defaults) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, seed int64, sink obs.EventSink) Outcome {
	return runPlanned(d.Plan, spec, timeout, maxTuples, seed, sink)
}

// Plan implements Planner.
func (Defaults) Plan(spec QuerySpec, ex *engine.Exec, _ *engine.Budget, _ int64) (*plan.Node, *cost.Deriver, error) {
	return bestPlan(spec, ex, baseStats(spec))
}

// Greedy is the size-only left-deep heuristic (option 3).
type Greedy struct{}

// Name implements Option.
func (Greedy) Name() string { return "Greedy" }

// Run implements Option.
func (g Greedy) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, seed int64, sink obs.EventSink) Outcome {
	return runPlanned(g.Plan, spec, timeout, maxTuples, seed, sink)
}

// Plan implements Planner. The heuristic reads only table sizes; EXPLAIN
// prices its plan as Defaults would.
func (Greedy) Plan(spec QuerySpec, ex *engine.Exec, _ *engine.Budget, _ int64) (*plan.Node, *cost.Deriver, error) {
	st := baseStats(spec)
	tree, err := opt.GreedyPlan(spec.Q, st)
	return tree, defaultsDeriver(spec, ex, st), err
}

// OnDemand computes HLL statistics after the query is issued (option 1),
// paying the scan before optimizing.
type OnDemand struct{}

// Name implements Option.
func (OnDemand) Name() string { return "On Demand" }

// Run implements Option.
func (o OnDemand) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, seed int64, sink obs.EventSink) Outcome {
	return runPlanned(o.Plan, spec, timeout, maxTuples, seed, sink)
}

// Plan implements Planner.
func (OnDemand) Plan(spec QuerySpec, ex *engine.Exec, b *engine.Budget, _ int64) (*plan.Node, *cost.Deriver, error) {
	st, err := opt.CollectOnDemand(spec.Q, ex, b)
	if err != nil {
		return nil, nil, err
	}
	return bestPlan(spec, ex, st)
}

// Sampling is the block-sampling + GEE option (option 2).
type Sampling struct{}

// Name implements Option.
func (Sampling) Name() string { return "Sampling" }

// Run implements Option.
func (s Sampling) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, seed int64, sink obs.EventSink) Outcome {
	return runPlanned(s.Plan, spec, timeout, maxTuples, seed, sink)
}

// Plan implements Planner.
func (Sampling) Plan(spec QuerySpec, ex *engine.Exec, b *engine.Budget, seed int64) (*plan.Node, *cost.Deriver, error) {
	st, err := opt.CollectSampling(spec.Q, ex, b, randx.New(randx.Derive(seed, "sampling")))
	if err != nil {
		return nil, nil, err
	}
	return bestPlan(spec, ex, st)
}

// Skinner is the Skinner-G stand-in (option 5). It learns its join order
// over episodes, so it is no Planner.
type Skinner struct{}

// Name implements Option.
func (Skinner) Name() string { return "SkinnerDB" }

// Run implements Option.
func (Skinner) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, seed int64, sink obs.EventSink) Outcome {
	start := time.Now()
	b := engine.NewBudget(timeout, maxTuples)
	ex := engine.New(spec.Cat).NewExec(engine.ExecConfig{Obs: obs.NewTracer(sink)})
	res, err := skinner.Run(spec.Q, ex, b, seed)
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
	// arguments and tees its Sink and the run's sink into the q-error
	// summary the Outcome reports, so the summary is collected whether or
	// not either is set.
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
func (m Monsoon) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, seed int64, sink obs.EventSink) Outcome {
	start := time.Now()
	b := engine.NewBudget(timeout, maxTuples)
	qs := &qerrSink{}
	cfg := m.Config
	cfg.Seed = seed
	cfg.Sink = obs.Multi(m.Sink, sink, qs)
	res, err := core.Run(spec.Q, engine.New(spec.Cat), b, cfg)
	out := Outcome{
		Rows: res.Rows, Value: res.Value,
		MCTSTime: res.PlanTime, SigmaTime: res.SigmaTime, ExecTime: res.ExecTime,
		QErrJoins: qs.n, QErrGeo: qs.geo(), QErrMax: qs.max, QErrMisses: qs.misses,
		CacheHits: res.CacheHits, CacheMisses: res.CacheMisses,
	}
	return finish(start, b, err, out)
}

// HandWritten executes the spec's hand-written plan (the OTT baseline row).
type HandWritten struct{}

// Name implements Option.
func (HandWritten) Name() string { return "Hand-written" }

// Run implements Option.
func (h HandWritten) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, seed int64, sink obs.EventSink) Outcome {
	return runPlanned(h.Plan, spec, timeout, maxTuples, seed, sink)
}

// Plan implements Planner. A hand-written plan comes with no estimates;
// EXPLAIN prices it as Defaults would.
func (HandWritten) Plan(spec QuerySpec, ex *engine.Exec, _ *engine.Budget, _ int64) (*plan.Node, *cost.Deriver, error) {
	if spec.Hand == nil {
		return nil, nil, fmt.Errorf("harness: %s has no hand-written plan", spec.Q.Name)
	}
	return spec.Hand, defaultsDeriver(spec, ex, baseStats(spec)), nil
}
