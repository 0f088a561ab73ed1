package core

import (
	"time"

	"monsoon/internal/cost"
	"monsoon/internal/engine"
	"monsoon/internal/mcts"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/plancache"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/stats"
	"monsoon/internal/table"
)

// Config parameterizes one Monsoon run.
type Config struct {
	// Prior over distinct-value counts; nil means the paper's default
	// (Spike and Slab).
	Prior prior.Prior
	// Strategy selects the MCTS selection rule; default UCT.
	Strategy mcts.Strategy
	// Iterations is the MCTS rollout budget per planning call; default 800.
	Iterations int
	// Seed makes the run reproducible.
	Seed int64
	// UniformRollout disables the greedy rollout policy (ablation knob).
	UniformRollout bool
	// Stats, when non-nil, pre-seeds the statistics set S with known
	// statistics (§3.1: "if statistics on a referenced function are
	// available, this can be handled ... by simply initializing the
	// optimization problem so that any relevant statistics are known").
	// Raw base-table counts are always added. The store is used directly
	// and mutated by the run.
	Stats *stats.Store
	// Sink, when non-nil, receives the structured observability stream:
	// spans for every MDP action and engine operator, one trace line per
	// real-world action as a message event (obs.MessageSink turns those back
	// into a line callback), and one estimate-vs-actual cardinality record
	// per executed plan node. Nil keeps the run trace-free at (almost) zero
	// cost.
	Sink obs.EventSink
	// Metrics, when non-nil, accumulates counters and histograms
	// (actions, executes, Σ ops, planning latency, per-join q-error)
	// across runs sharing the registry.
	Metrics *obs.Registry
	// Cache, when non-nil, memoizes each planning pick across rounds and
	// sessions sharing the cache: before each MCTS call the session looks
	// up (canonical query shape, planner knobs, MDP state with
	// log₂-bucketed statistics) and, on a hit whose action still applies,
	// takes it without searching; a miss memoizes the action MCTS picks.
	// Repeating an identical run through a warm or partly warm cache
	// reproduces the cold run's plan choices exactly. Nil disables caching
	// with zero overhead.
	Cache *plancache.Cache
	// Profile, when non-nil, is a calibrated per-operator-kind cost profile
	// (seconds per object, learned from recorded span corpora — see
	// cost.Calibrator): the MDP simulator prices EXECUTE transitions in
	// estimated seconds instead of flat object counts. Profiles participate
	// in the plan-cache key, so calibrated and uncalibrated sessions never
	// share memoized picks. Nil (the default) keeps the deterministic
	// uncalibrated model — bit-identical to every pinned golden.
	Profile *cost.CostProfile
	// ReplanThreshold, when > 0, arms mid-query re-optimization: after an
	// EXECUTE, if the q-error between a materialized tree's estimated and
	// actual root cardinality reaches the threshold (misses — one side
	// empty — always trigger), the session invalidates this query's
	// plan-cache entries and forces the next PlanRound to re-run MCTS with
	// the hardened statistics instead of taking picks memoized under the
	// misestimate. Zero disables the trigger entirely.
	ReplanThreshold float64
}

// Result reports a completed (or timed-out) Monsoon run, including the
// component breakdown Table 8 reports: MCTS planning time, Σ statistics
// collection time, and plain execution time.
type Result struct {
	// Value is the query's final aggregate.
	Value float64
	// Rows is the cardinality of the final result.
	Rows int
	// Executes counts EXECUTE transitions (multi-step rounds).
	Executes int
	// Actions counts all real-world MDP actions taken.
	Actions int
	// SigmaOps counts Σ operators executed.
	SigmaOps int
	// PlanTime is total planning time, MCTS searches and plan-cache
	// lookups; SigmaTime the Σ passes; ExecTime the rest of engine
	// execution.
	PlanTime, SigmaTime, ExecTime time.Duration
	// Produced is the total §4.4 cost actually paid (objects produced).
	Produced float64
	// Executed lists the trees materialized by the EXECUTE rounds, in
	// execution order (the multi-step physical plan the MDP settled on).
	Executed []*plan.Node
	// CacheHits and CacheMisses count plan-cache consultations for this
	// run, one per pick: a fully warm run has CacheHits == Actions. Both
	// are zero when no cache is configured, and a forced replan's picks
	// count as neither.
	CacheHits, CacheMisses int
	// Replans counts the EXECUTE rounds whose observed q-error armed a
	// forced replan (Config.ReplanThreshold); ReplanInvalidations is the
	// total number of plan-cache entries those triggers evicted.
	Replans, ReplanInvalidations int
	// Output is the materialized full join result, set by Finalize. Each
	// session materializes into its own scope (never the shared engine), so
	// callers that need the result rows read them here, until Release.
	Output *table.Relation

	ex *engine.Exec
}

// Release declares the run's rows dead: the session's execution scope gives
// the memory its rounds materialized into back to the engine's free lists,
// and Output becomes nil. A caller that is done with the result — a server
// that has encoded its reply — calls it so the next query reuses that memory
// instead of leaving it to the collector; one that never calls it keeps
// Output for as long as it likes — and, while it holds the Result, the scope
// with every buffer the rounds took (see Detached). Idempotent; valid after
// an error too.
func (r *Result) Release() {
	if r.ex != nil {
		r.ex.Release()
		r.ex = nil
	}
	r.Output = nil
}

// Detached returns a copy of r without the session's execution scope, for a
// caller that hands the result on and never releases it: once r is dropped,
// Output's rows are all the copy keeps reachable, as before results could be
// released, and the copy's Release has nothing to give back.
func Detached(r *Result) Result {
	c := *r
	c.ex = nil
	return c
}

// Run optimizes and executes q on eng with interleaved MCTS planning and
// execution (§5.3): plan until MCTS prescribes EXECUTE, run all of Rp on the
// engine, harden observed statistics, and repeat until the full result is
// materialized. A budget overrun returns engine.ErrBudget with partial
// accounting in the returned Result.
//
// Run is a thin wrapper over the Session pipeline; drive a Session directly
// to observe or stop the run between rounds.
func Run(q *query.Query, eng *engine.Engine, budget *engine.Budget, cfg Config) (*Result, error) {
	s := NewSession(q, eng, budget, cfg)
	defer s.Close()
	for {
		execute, err := s.PlanRound()
		if err != nil {
			return s.Result(), err
		}
		if !execute {
			break
		}
		if err := s.ExecuteRound(); err != nil {
			return s.Result(), err
		}
	}
	return s.Finalize()
}
