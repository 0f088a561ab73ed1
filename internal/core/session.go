package core

import (
	"fmt"
	"strings"
	"time"

	"monsoon/internal/cost"
	"monsoon/internal/engine"
	"monsoon/internal/mcts"
	"monsoon/internal/obs"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/stats"
)

// Session is the driver's §5.3 loop made explicit: it owns the long-lived
// pieces of one Monsoon run — the seeded statistics store, the MDP simulation
// model, the MCTS planner, the tracer, and the optional plan cache — and
// exposes the loop's phases as methods. A run is
//
//	s, err := NewSession(q, eng, budget, cfg)
//	defer s.Close()
//	for {
//	    execute, err := s.PlanRound()   // plan edits until EXECUTE (or done)
//	    if !execute { break }
//	    err = s.ExecuteRound()          // materialize Rp, harden statistics
//	}
//	res, err := s.Finalize()            // final aggregate
//
// which is exactly what the Run compatibility wrapper does; driving the
// phases by hand lets harnesses inspect or stop the run between rounds.
//
// When cfg.Cache is set, every pick consults the cache first, keyed by the
// canonical query shape, the planner knobs, and the current state (planned
// trees, materialized frontier, and the hardened statistics rendered through
// stats.Store.BucketSignature()). A hit takes the memoized action — skipping
// MCTS — once applying it shows it still applies; a miss runs MCTS and
// memoizes the action it picks. Because hardening that moves any statistic
// across a log₂ bucket boundary changes the key, entries recorded under
// stale statistics are never served. That is the one invalidation rule: after
// an EXECUTE the next pick's key carries the statistics the round hardened,
// so it can only hit a pick MCTS made from the same facts.
// Each search draws from RNG streams numbered by the actions taken so far,
// so a repeated (query, seed, statistics) run makes the same plan choices
// with and without the cache, however much of it is warm.
type Session struct {
	q      *query.Query
	eng    *engine.Engine
	ex     *engine.Exec
	budget *engine.Budget
	cfg    Config

	st      *stats.Store
	state   *State
	model   *Model
	planner *mcts.Planner
	tr      *obs.Tracer
	res     *Result

	qsp    *obs.Span
	closed bool
	// now overrides the wall clock for deadline checks; tests use it to
	// exercise the between-trees budget check deterministically. Nil means
	// time.Now.
	now func() time.Time

	// shape is the cache-key prefix: canonical query shape + planner knobs.
	shape string
	// execPending is set between a PlanRound that picked EXECUTE and the
	// ExecuteRound that performs it.
	execPending bool
}

// NewSession seeds the statistics store, builds the initial MDP state, and
// wires the model, planner, and tracer. The engine is never mutated: the
// session executes through its own engine.Exec scope carrying the tracer,
// metrics registry, and materialization store, so any number of sessions may
// share one engine concurrently.
func NewSession(q *query.Query, eng *engine.Engine, budget *engine.Budget, cfg Config) *Session {
	if cfg.Prior == nil {
		cfg.Prior = prior.Default()
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 800
	}
	st := cfg.Stats
	if st == nil {
		st = stats.New()
	}
	eng.SeedBaseStats(q, st)

	s := &Session{q: q, eng: eng, budget: budget, cfg: cfg, st: st, res: &Result{}}
	s.state = NewInitialState(q, st)

	s.tr = obs.NewTracer(cfg.Sink)
	s.ex = eng.NewExec(engine.ExecConfig{Obs: s.tr})
	s.res.ex = s.ex

	// The session's model only lists the root's actions and lends its mean
	// rule to ExecuteRound's estimates; the search samples on forks, each with
	// its own RNG, so this one needs none.
	s.model = &Model{Q: q, Prior: cfg.Prior, UniformRollout: cfg.UniformRollout, Profile: cfg.Profile}
	// Planning is root-parallel: the rollout budget is pre-split into shards
	// whose count, quotas, and RNG seeds depend only on (seed, iterations),
	// never on GOMAXPROCS — so the thread count trades planning wall time
	// without moving a single plan choice (the planner golden in
	// parallel_test.go pins this).
	s.planner = mcts.New(mcts.Config{Strategy: cfg.Strategy, Iterations: cfg.Iterations}, randx.Derive(cfg.Seed, "mcts"))

	if cfg.Cache != nil {
		s.shape = canonicalShape(q, cfg)
	}
	s.qsp = s.tr.Start(obs.KQuery, q.Name)
	return s
}

// Result exposes the session's accounting so far; the same value Finalize
// returns. Valid (partially filled) even after an error.
func (s *Session) Result() *Result { return s.res }

// Close ends the query span with the final accounting and publishes the
// plan-cache pressure gauges. Idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.cfg.Cache != nil && s.cfg.Metrics != nil {
		// Cache pressure next to the hit/miss counters: entries and
		// cumulative evictions are cache-wide (shared across sessions).
		// Published under the cache's own lock so concurrent closers
		// serialize and the final gauge value is the newest cache state,
		// not whichever stale snapshot happened to land last.
		s.cfg.Cache.PublishGauges(func(entries, evictions float64) {
			s.cfg.Metrics.Gauge("monsoon.plancache.entries").Set(entries)
			s.cfg.Metrics.Gauge("monsoon.plancache.evictions").Set(evictions)
		})
	}
	s.qsp.SetRows(0, s.res.Rows).SetProduced(s.res.Produced).
		SetNum("actions", float64(s.res.Actions)).
		SetNum("executes", float64(s.res.Executes)).
		SetNum("sigma_ops", float64(s.res.SigmaOps)).
		End()
}

func (s *Session) overDeadline() bool {
	if s.budget == nil || s.budget.Deadline.IsZero() {
		return false
	}
	clock := time.Now
	if s.now != nil {
		clock = s.now
	}
	return clock().After(s.budget.Deadline)
}

// cacheKey is the full plan-cache key for the current state.
func (s *Session) cacheKey() string {
	return s.shape + "\x00" + s.state.OutcomeKey()
}

// PlanRound runs planning from the current state until the MDP picks
// EXECUTE, applying each plan edit as it is chosen. It returns true when an
// EXECUTE is pending (perform it with ExecuteRound), false when the state is
// already terminal.
func (s *Session) PlanRound() (bool, error) {
	if s.state.Terminal() {
		return false, nil
	}
	for !s.execPending {
		if s.overDeadline() {
			return false, engine.ErrBudget
		}
		act, next, err := s.pick()
		if err != nil {
			return false, err
		}
		s.res.Actions++
		s.cfg.Metrics.Counter("monsoon.actions").Inc()
		if s.tr.Active() {
			s.tr.Message(act.String())
		}
		if act.Kind == ActExecute {
			s.execPending = true
			break
		}
		asp := s.tr.Start(obs.KAction, act.Key())
		if next == nil {
			if next, err = applyPlanEdit(s.state, s.q, act); err != nil {
				asp.SetStr("err", err.Error()).End()
				return false, err
			}
		}
		asp.End()
		s.state = next
	}
	return true, nil
}

// pick chooses the action to take in the current state and emits its KPlan
// span. With a plan cache it looks up the state's key first: a memoized
// action that still applies is taken as it is, with next the state a plan
// edit leads to; anything else is a miss, and the action MCTS picks is
// memoized under the key at once. The search's call index is the number of
// actions taken so far plus one, so its RNG streams depend only on the
// trajectory, never on which earlier picks came from the cache.
func (s *Session) pick() (Action, *State, error) {
	t0 := time.Now()
	var key string
	if s.cfg.Cache != nil {
		key = s.cacheKey()
		if act, next, ok := s.cached(key); ok {
			s.res.CacheHits++
			s.cfg.Metrics.Counter("monsoon.plancache.hits").Inc()
			s.tr.Start(obs.KPlan, "mcts").SetNum("rollouts", 0).SetStr(obs.AttrCacheHit, "true").End()
			elapsed := time.Since(t0)
			s.res.PlanTime += elapsed
			s.cfg.Metrics.Histogram("monsoon.plan.time").ObserveDuration(elapsed)
			return act, next, nil
		}
		s.res.CacheMisses++
		s.cfg.Metrics.Counter("monsoon.plancache.misses").Inc()
	}
	psp := s.tr.Start(obs.KPlan, "mcts")
	// Shard spans of this search (if it fans out) parent to psp.
	picked, ps := s.planner.Plan(s.model, s.state, s.res.Actions+1, s.tr, psp)
	planElapsed := time.Since(t0)
	// The span setters are nil-safe no-ops when no sink is attached.
	psp.SetNum("rollouts", float64(ps.Rollouts)).
		SetNum("root_actions", float64(ps.RootActions)).
		SetNum("tree_depth", float64(ps.MaxDepth)).
		SetNum("nodes", float64(ps.Nodes))
	if ps.Workers > 1 {
		// Mirrors the engine's convention: the attribute appears only
		// when the search actually fanned out, so serial and parallel
		// span streams stay comparable attribute-for-attribute.
		psp.SetNum(obs.AttrPlanWorkers, float64(ps.Workers))
	}
	if ps.FastPath {
		psp.SetStr("fast_path", "true")
	}
	if s.cfg.Cache != nil {
		psp.SetStr(obs.AttrCacheHit, "false")
	}
	psp.End()
	s.res.PlanTime += planElapsed
	s.cfg.Metrics.Histogram("monsoon.plan.time").ObserveDuration(planElapsed)
	if !ps.FastPath {
		// Search-only planning latency: fast-path calls skip MCTS, so
		// keeping them out makes this the planner-parallelism signal the
		// plan_workers attribute is read against.
		s.cfg.Metrics.Histogram("monsoon.plan.search.time").ObserveDuration(planElapsed)
	}
	if picked == nil {
		return Action{}, nil, fmt.Errorf("core: no legal action in non-terminal state %s", s.state)
	}
	act := *picked.(*Action)
	s.cfg.Cache.Put(key, act)
	return act, nil, nil
}

// cached returns the plan cache's action for key when it still applies to
// the current state — an EXECUTE needs a planned tree, a plan edit must
// apply — and the state a plan edit leads to. The state is left untouched.
func (s *Session) cached(key string) (Action, *State, bool) {
	v, _ := s.cfg.Cache.Get(key)
	act, ok := v.(Action)
	if !ok {
		return Action{}, nil, false
	}
	if act.Kind == ActExecute {
		return act, nil, len(s.state.Planned) > 0
	}
	next, err := applyPlanEdit(s.state, s.q, act)
	return act, next, err == nil
}

// ExecuteRound performs the pending EXECUTE: run every planned tree on the
// engine, harden the observed statistics, and settle the materialized
// frontier. The budget deadline is re-checked between trees; an overrun
// returns engine.ErrBudget with the partial round's accounting already in
// Result.
func (s *Session) ExecuteRound() error {
	if !s.execPending {
		return fmt.Errorf("core: ExecuteRound without a pending EXECUTE")
	}
	s.execPending = false
	asp := s.tr.Start(obs.KAction, Action{Kind: ActExecute}.Key())
	ns := s.state.clone(false)
	ns.ownFrontier()
	round := s.res.Executes + 1
	// What the optimizer believes each intermediate will produce, under
	// the prior's expectation, frozen before the world answers. Derived
	// on an overlay of the store (and through Mean, not Sample) so recording
	// the predictions perturbs neither the statistics set nor the RNG
	// stream — traced and untraced runs stay bit-identical.
	var ests map[string]float64
	if s.tr.Active() || s.cfg.Metrics != nil {
		dv := &cost.Deriver{Q: s.q, St: ns.St.Overlay(), Miss: s.model.meanMiss()}
		ests = make(map[string]float64)
		for _, t := range ns.Planned {
			dv.NodeCounts(t.Tree, ests)
		}
	}
	roundProduced := 0.0
	for i, t := range ns.Planned {
		if i > 0 && s.overDeadline() {
			// The deadline passed while an earlier tree of this round ran:
			// stop between trees rather than starting the next one. The
			// completed trees' accounting is already in Result.
			asp.SetStr("err", engine.ErrBudget.Error()).SetProduced(roundProduced).End()
			return engine.ErrBudget
		}
		if t.Tree.Sigma {
			s.res.SigmaOps++
			s.cfg.Metrics.Counter("monsoon.sigma_ops").Inc()
		}
		t1 := time.Now()
		_, er, err := s.ex.ExecTree(s.q, t.Tree, s.budget)
		elapsed := time.Since(t1)
		s.res.SigmaTime += er.SigmaTime
		s.res.ExecTime += elapsed - er.SigmaTime
		s.res.Produced += er.Produced
		roundProduced += er.Produced
		for k, v := range er.Counts {
			s.st.SetCount(k, v)
		}
		for _, o := range er.Sigma {
			s.st.SetMeasured(o.Term, o.Expr, o.D)
		}
		if err != nil {
			asp.SetStr("err", err.Error()).SetProduced(roundProduced).End()
			return err
		}
		s.res.Executed = append(s.res.Executed, t.Tree)
		reportEstimates(s.tr, s.cfg.Metrics, t.Tree, ests, er.Counts, er.Times, round)
		if s.tr.Active() {
			s.tr.Message(fmt.Sprintf("  materialized %s (%.0f objects produced)", t.Tree, er.Produced))
		}
	}
	settleExecution(ns, nil)
	s.st.DropAssumed()
	s.state = ns
	s.res.Executes++
	s.cfg.Metrics.Counter("monsoon.executes").Inc()
	asp.SetNum("trees", float64(len(ns.Planned))).SetProduced(roundProduced).End()
	return nil
}

// Finalize computes the query's final aggregate from the materialized full
// result and returns the completed Result. Call once the state is terminal
// (PlanRound returned false without error).
func (s *Session) Finalize() (*Result, error) {
	rel, ok := s.ex.Materialized(s.q.Aliases().Key())
	if !ok {
		return s.res, fmt.Errorf("core: terminal state but result not materialized")
	}
	agg := s.tr.Start(obs.KAggregate, s.q.Aliases().Key())
	v, err := engine.FinalAggregate(s.q, rel)
	if err != nil {
		agg.SetStr("err", err.Error()).End()
		return s.res, err
	}
	agg.SetRows(rel.Count(), 1).End()
	s.res.Value = v
	s.res.Rows = rel.Count()
	s.res.Output = rel
	return s.res, nil
}

// QueryShape renders the query's logical content, not its name: relations,
// joins, selections and output. Two queries of one shape derive the same
// statistics, so a daemon that hardens statistics across requests keeps one
// seed store per shape.
func QueryShape(q *query.Query) string {
	var b strings.Builder
	writeQueryShape(&b, q)
	return b.String()
}

func writeQueryShape(b *strings.Builder, q *query.Query) {
	for _, r := range q.Rels {
		fmt.Fprintf(b, "%s=%s;", r.Alias, r.Table)
	}
	b.WriteByte('|')
	for _, j := range q.Joins {
		b.WriteString(j.String())
		b.WriteByte(';')
	}
	b.WriteByte('|')
	for _, sp := range q.Sels {
		b.WriteString(sp.String())
		b.WriteByte(';')
	}
	fmt.Fprintf(b, "|out=%d,%s", q.Out.Kind, q.Out.Attr)
}

// canonicalShape renders the query's shape (QueryShape) plus the planner knobs
// that influence plan choice, as the cache-key prefix. Two queries with the
// same shape, knobs, frontier, and bucketed statistics are planning-
// equivalent, which is exactly when memoized picks may be shared.
func canonicalShape(q *query.Query, cfg Config) string {
	var b strings.Builder
	writeQueryShape(&b, q)
	fmt.Fprintf(&b, "|seed=%d;it=%d;strat=%d;uni=%t;prior=%s",
		cfg.Seed, cfg.Iterations, cfg.Strategy, cfg.UniformRollout, cfg.Prior.Name())
	if cfg.Profile != nil {
		// Calibrated sessions price EXECUTE differently, so they must never
		// share memoized picks with uncalibrated ones (or with sessions
		// calibrated from a different corpus). Nil profiles append nothing,
		// preserving every pre-calibration cache key byte-for-byte.
		fmt.Fprintf(&b, ";prof=%s", cfg.Profile.Fingerprint())
	}
	return b.String()
}
