// Package monsoon is the public API of this repository: a from-scratch Go
// implementation of the MONSOON query optimizer (Sikdar & Jermaine, SIGMOD
// 2020) together with the relational substrate it runs on.
//
// Monsoon optimizes multi-table queries whose predicates are partially
// obscured by opaque user-defined functions — the optimizer can see that two
// UDF terms are equi-joined but has no statistics about them. It models the
// choice between collecting statistics (materialize, scan, sketch) and
// boldly executing a guessed plan as a Markov decision process, solves it
// online with Monte-Carlo tree search under a prior over distinct-value
// counts, and interleaves planning with real execution until the query
// result is materialized.
//
// Quick start:
//
//	cat := monsoon.NewCatalog()
//	// ... build and register tables (see examples/quickstart) ...
//	q := monsoon.NewQuery("orders-by-city").
//		Rel("o", "orders").Rel("s", "sessions").
//		Join(monsoon.Identity("o.cid"), monsoon.Identity("s.cid")).
//		Select(monsoon.City("s.ip"), monsoon.Int(2570)).
//		MustBuild()
//	rep, err := monsoon.Run(q, cat, monsoon.WithSeed(42))
package monsoon

import (
	"fmt"
	"time"

	"monsoon/internal/core"
	"monsoon/internal/cost"
	"monsoon/internal/engine"
	"monsoon/internal/expr"
	"monsoon/internal/mcts"
	"monsoon/internal/obs"
	"monsoon/internal/plancache"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/sqlish"
	"monsoon/internal/stats"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// Re-exported core types. The underlying packages carry the full
// documentation; these aliases make the root package self-sufficient for
// downstream users (internal/ packages are not importable from outside).
type (
	// Catalog stores base tables by name.
	Catalog = table.Catalog
	// Relation is a named bag of rows with a schema.
	Relation = table.Relation
	// TableBuilder accumulates rows for a relation.
	TableBuilder = table.Builder
	// Column describes one attribute of a schema.
	Column = table.Column
	// Schema is an ordered list of columns.
	Schema = table.Schema
	// Row is one tuple.
	Row = table.Row
	// Value is the scalar value model.
	Value = value.Value
	// Query is a logical query over a catalog.
	Query = query.Query
	// QueryBuilder assembles queries.
	QueryBuilder = query.Builder
	// UDF is an opaque scalar function over table-qualified attributes.
	UDF = expr.UDF
	// Prior models uncertainty over a distinct-value count.
	Prior = prior.Prior
	// Result reports a completed Monsoon run, including the Table 8
	// component breakdown.
	Result = core.Result
	// EventSink receives the structured observability stream of a run:
	// spans, trace messages, and estimate-vs-actual records.
	EventSink = obs.EventSink
	// Event is one observability record delivered to an EventSink.
	Event = obs.Event
	// Span is one timed region of a traced run (MDP action or engine
	// operator), with rows in/out and objects produced.
	Span = obs.Span
	// CardEstimate is one estimate-vs-actual cardinality record with its
	// q-error, emitted at every EXECUTE for every executed plan node.
	CardEstimate = obs.Estimate
	// TraceCollector is an EventSink retaining everything in memory.
	TraceCollector = obs.Collector
	// MetricsRegistry accumulates counters, gauges, and histograms across
	// runs; dump it with its Dump method.
	MetricsRegistry = obs.Registry
	// PlanCache memoizes the action MCTS picks in each planning state,
	// keyed by query shape, plan state and bucketed statistics, so repeated
	// queries skip the search; share one across runs with WithPlanCache or
	// a Session.
	PlanCache = plancache.Cache
	// PlanCacheStats snapshots a plan cache's hit/miss/eviction accounting.
	PlanCacheStats = plancache.Stats
	// CostProfile is a calibrated per-operator-kind cost profile (seconds
	// per object produced), learned from recorded span corpora; attach one
	// with WithCostProfile.
	CostProfile = cost.CostProfile
	// CostCalibrator folds recorded spans or span trees into per-operator
	// timing accumulators and emits a CostProfile: the offline way to learn
	// the profile a run then plans with, fixed, under WithCostProfile.
	CostCalibrator = cost.Calibrator
)

// NewPlanCache creates a plan cache bounded to capacity entries; capacity
// <= 0 selects the default (512).
func NewPlanCache(capacity int) *PlanCache { return plancache.New(capacity) }

// NewCostCalibrator creates an empty cost calibrator; feed it spans with
// AddSpan/AddSpans/AddTree and extract the learned rates with Profile.
func NewCostCalibrator() *CostCalibrator { return cost.NewCalibrator() }

// LoadCostProfile reads a calibrated cost profile from the JSON file a
// calibration run wrote (CostProfile.WriteJSON, or
// `monsoon-trace calibrate`).
func LoadCostProfile(path string) (*CostProfile, error) { return cost.LoadProfile(path) }

// NewMetricsRegistry creates an empty metrics registry for WithMetrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewJSONLSink wraps a writer as an EventSink streaming one JSON object per
// event line (the monsoon-cli --trace-json format).
var NewJSONLSink = obs.NewJSONL

// Value constructors.
var (
	// Int wraps an int64.
	Int = value.Int
	// Float wraps a float64.
	Float = value.Float
	// Str wraps a string.
	Str = value.String
	// Boolean wraps a bool.
	Boolean = value.Bool
	// IntList wraps an int64 set (sorted, deduplicated).
	IntList = value.IntList
	// Null is the NULL value constructor.
	Null = value.Null
)

// Column kinds.
const (
	KindInt     = value.KindInt
	KindFloat   = value.KindFloat
	KindString  = value.KindString
	KindBool    = value.KindBool
	KindIntList = value.KindIntList
)

// The opaque-UDF library (see internal/expr for semantics).
var (
	// Identity projects an attribute unchanged (plain equi-join terms).
	Identity = expr.Identity
	// ExtractDate takes the date prefix of a timestamp string.
	ExtractDate = expr.ExtractDate
	// City buckets an IPv4 string into a city id.
	City = expr.City
	// Between extracts the substring between two markers.
	Between = expr.Between
	// HashMod hashes an integer attribute into b buckets.
	HashMod = expr.HashMod
	// Lower lowercases a string attribute.
	Lower = expr.Lower
	// Prefix truncates a string attribute.
	Prefix = expr.Prefix
	// ConcatKey concatenates two attributes (multi-table capable).
	ConcatKey = expr.ConcatKey
	// SetEqualsKey canonicalizes an int-list so set-equal rows join.
	SetEqualsKey = expr.SetEqualsKey
	// SumMod combines two integer attributes modulo m (multi-table capable).
	SumMod = expr.SumMod
	// Sprintf formats an integer attribute through a fixed pattern.
	Sprintf = expr.Sprintf
	// YearOf extracts the year of a date string as an integer.
	YearOf = expr.YearOf
)

// NewUDF wraps an arbitrary opaque Go function as a UDF. args are the fully
// qualified attributes ("alias.column") the function reads; fn receives their
// values in order.
func NewUDF(name string, args []string, fn func([]Value) Value) *UDF {
	return &UDF{Name: name, Args: args, Fn: fn}
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog { return table.NewCatalog() }

// NewTable starts building a stored table. Columns are (name, kind) pairs
// qualified by the table's name automatically.
func NewTable(name string, cols ...Column) *TableBuilder {
	qualified := make([]Column, len(cols))
	for i, c := range cols {
		if c.Table == "" {
			c.Table = name
		}
		qualified[i] = c
	}
	return table.NewBuilder(name, table.NewSchema(qualified...))
}

// Col declares a column for NewTable; the table qualifier is filled in by
// NewTable.
func Col(name string, kind value.Kind) Column { return Column{Name: name, Kind: kind} }

// NewQuery starts building a query.
func NewQuery(name string) *QueryBuilder { return query.NewBuilder(name) }

// UDFRegistry resolves UDF names in SQL text to factories; NewUDFRegistry
// pre-registers the library UDFs (ExtractDate, City, Lower, YearOf, SetKey,
// Prefix, HashMod, Sprintf, Between, ConcatKey, SumMod).
type UDFRegistry = sqlish.Registry

// UDFFactory instantiates a UDF from its SQL call site: attrs are the
// qualified attribute arguments, consts the literal arguments, in order.
type UDFFactory = sqlish.UDFFactory

// NewUDFRegistry returns a registry with the library UDFs pre-registered.
func NewUDFRegistry() *UDFRegistry { return sqlish.NewRegistry() }

// ParseQuery parses the paper's SQL dialect into a query:
//
//	SELECT COUNT(*) | SUM(alias.attr)
//	FROM table [alias], ...
//	WHERE term = term AND ...
//
// where a term is a qualified attribute, a literal, or a call to a
// registered UDF (see NewUDFRegistry). reg may be nil for the default
// registry.
func ParseQuery(name, sql string, reg *UDFRegistry) (*Query, error) {
	return sqlish.Parse(name, sql, reg)
}

// Priors returns the seven §5.2 priors in Table 2 order.
func Priors() []Prior { return prior.All() }

// PriorByName resolves a prior by its Table 2 name ("Uniform", "Increasing",
// "Decreasing", "U-Shaped", "Low Biased", "Spike and Slab", "Discrete").
func PriorByName(name string) Prior { return prior.ByName(name) }

// PriorDensity evaluates the continuous density of a prior in normalized
// x = d/c(r) space (the Figure 2 curves); priors without a smooth density
// (Discrete) return 0 everywhere.
func PriorDensity(p Prior, x float64) float64 { return prior.Density(p, x) }

// RunOption configures Run.
type RunOption func(*runConfig)

type runConfig struct {
	core     core.Config
	trace    func(string)
	timeout  time.Duration
	maxTuple float64
	known    []knownStat
}

type knownStat struct {
	fn *UDF
	d  float64
}

// WithPrior selects the prior over distinct-value counts (default:
// Spike and Slab, the paper's recommendation).
func WithPrior(p Prior) RunOption { return func(c *runConfig) { c.core.Prior = p } }

// WithIterations sets the MCTS rollout budget per planning call.
func WithIterations(n int) RunOption { return func(c *runConfig) { c.core.Iterations = n } }

// WithSeed makes the run reproducible.
func WithSeed(seed int64) RunOption { return func(c *runConfig) { c.core.Seed = seed } }

// WithTimeout bounds the run's wall time; exceeding it returns ErrBudget.
func WithTimeout(d time.Duration) RunOption { return func(c *runConfig) { c.timeout = d } }

// WithMaxTuples bounds the total objects produced; exceeding it returns
// ErrBudget.
func WithMaxTuples(n float64) RunOption { return func(c *runConfig) { c.maxTuple = n } }

// WithTrace streams one line per real-world optimizer action.
func WithTrace(fn func(string)) RunOption { return func(c *runConfig) { c.trace = fn } }

// WithEventSink streams the run's structured observability events (spans for
// every MDP action and engine operator, trace messages, estimate-vs-actual
// cardinality records) to sink. Composes with WithTrace.
func WithEventSink(sink EventSink) RunOption { return func(c *runConfig) { c.core.Sink = sink } }

// WithMetrics accumulates the run's counters and histograms (actions,
// EXECUTE rounds, Σ operators, planning latency, per-join q-error) into reg,
// which may be shared across runs.
func WithMetrics(reg *MetricsRegistry) RunOption { return func(c *runConfig) { c.core.Metrics = reg } }

// WithPlanCache memoizes each planning pick in c and takes it again on
// repeats: before each MCTS call the run consults c, keyed by the query's
// canonical shape, the planner knobs, and the current MDP state with
// log₂-bucketed statistics, and a hit takes the memoized action, once it
// still applies, instead of searching. A warm run reproduces the cold run's
// plan choices exactly, and so does a partly warm one.
// Share one cache across runs (it is safe for concurrent use), or use a
// Session, which wires a shared cache automatically.
func WithPlanCache(c *PlanCache) RunOption { return func(cfg *runConfig) { cfg.core.Cache = c } }

// WithCostProfile prices the optimizer's EXECUTE simulations with a
// calibrated per-operator-kind cost profile (estimated seconds) instead of
// the paper's flat object-count cost. Profiles participate in the plan-cache
// key, so calibrated and uncalibrated runs never share memoized picks. Nil
// is the default uncalibrated model, bit-identical to previous releases.
func WithCostProfile(p *CostProfile) RunOption {
	return func(c *runConfig) { c.core.Profile = p }
}

// WithEpsilonGreedy switches MCTS from UCT to the adaptive ε-greedy
// selection strategy (§5.1).
func WithEpsilonGreedy() RunOption {
	return func(c *runConfig) { c.core.Strategy = mcts.EpsGreedy }
}

// WithKnownDistinct declares the distinct-value count of a UDF term as
// already known (§3.1: available statistics initialize the optimization
// problem). The UDF is matched by pointer identity against the query's join
// and selection terms, so pass the same *UDF value used when building the
// query.
func WithKnownDistinct(fn *UDF, d float64) RunOption {
	return func(c *runConfig) { c.known = append(c.known, knownStat{fn: fn, d: d}) }
}

// ErrBudget is returned when a run exceeds its timeout or tuple budget.
var ErrBudget = engine.ErrBudget

// Report is Run's return value: the Monsoon Result plus the materialized
// output relation.
type Report struct {
	Result
	// Output is the final result relation.
	Output *Relation
}

// Run optimizes and executes q over cat with the Monsoon optimizer:
// interleaved MCTS planning, Σ statistics collection, and execution (§5.3).
func Run(q *Query, cat *Catalog, opts ...RunOption) (*Report, error) {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	budget := engine.NewBudget(cfg.timeout, cfg.maxTuple)
	if len(cfg.known) > 0 {
		st := stats.New()
		for _, k := range cfg.known {
			for _, term := range q.Terms() {
				if term.Fn == k.fn {
					st.SetMeasured(term.ID, term.Aliases.Key(), k.d)
				}
			}
		}
		cfg.core.Stats = st
	}
	cfg.core.Sink = obs.Multi(cfg.core.Sink, obs.MessageSink(cfg.trace))
	res, err := core.Run(q, engine.New(cat), budget, cfg.core)
	rep := &Report{Result: core.Detached(res)}
	if err != nil {
		return rep, err
	}
	if res.Output == nil {
		return rep, fmt.Errorf("monsoon: result not materialized")
	}
	rep.Output = res.Output
	return rep, nil
}

// Session is the serving-path entry point: a handle over one catalog that
// carries a shared plan cache (and any default options) across queries, so
// repeated or similar queries take memoized picks instead of re-running
// MCTS. Each Run still executes on a fresh engine — only planning knowledge
// is shared, never materialized state — so results are identical to
// standalone Run calls with the same seed. Safe for concurrent Run calls.
type Session struct {
	cat   *Catalog
	cache *PlanCache
	opts  []RunOption
}

// NewSession creates a session over cat. opts become defaults for every
// Run on the session; per-call options override them. The session owns a
// default-capacity plan cache unless opts carry WithPlanCache.
func NewSession(cat *Catalog, opts ...RunOption) *Session {
	return &Session{cat: cat, cache: NewPlanCache(0), opts: opts}
}

// PlanCacheStats snapshots the session cache's accounting (hits, misses,
// evictions, entries).
func (s *Session) PlanCacheStats() PlanCacheStats { return s.cache.Stats() }

// Run optimizes and executes q like the package-level Run, with the
// session's defaults applied first and its plan cache attached.
func (s *Session) Run(q *Query, opts ...RunOption) (*Report, error) {
	all := make([]RunOption, 0, len(s.opts)+len(opts)+1)
	all = append(all, WithPlanCache(s.cache))
	all = append(all, s.opts...)
	all = append(all, opts...)
	return Run(q, s.cat, all...)
}
