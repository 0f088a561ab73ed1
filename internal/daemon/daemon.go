// Package daemon is the monsoond serving core: a long-lived HTTP server that
// runs many core.Sessions concurrently against one shared engine and plan
// cache. It exists as a library (rather than living in
// cmd/monsoond) so the handler set is httptest-coverable without sockets.
//
// Shared vs per-query state (the §10 DESIGN split):
//
//   - Shared across every request: the benchmark catalogs and their engines
//     (immutable after load), the plan cache (internally locked; its keys
//     embed the full planning state, so a hit is deterministic no matter
//     which request warmed an entry), the metrics registry and the trace ring;
//     with Config.HardenStats, one statistics seed store per query shape.
//   - Per-request: an engine.Exec scope (tracer, metrics registry,
//     materialization store) created inside core.NewSession and released once
//     the reply is hashed, a statistics store, a Budget, and a
//     deterministically derived seed.
//
// Each query plans from a statistics store of its own, so two concurrent runs
// of the same query are bit-identical to each other and to a solo run: they
// plan from the same statistics and never see each other's hardened facts
// mid-run. Without Config.HardenStats that store starts empty. With it, the
// store is a clone of the seed store of the query's shape (core.QueryShape),
// and the hardened facts are merged back after the run — future queries of
// that shape then plan from better statistics at the cost of cross-request
// determinism (documented, opt-in). Facts never cross shapes: term IDs are
// local to a query, and two queries may filter one alias differently.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"monsoon/internal/core"
	"monsoon/internal/engine"
	"monsoon/internal/harness"
	"monsoon/internal/obs"
	"monsoon/internal/obs/obshttp"
	"monsoon/internal/plancache"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/sqlish"
	"monsoon/internal/stats"
	"monsoon/internal/table"
)

// Config parameterizes a daemon instance.
type Config struct {
	// Bench names the benchmark whose data and named queries the daemon
	// serves: tpch, imdb, ott, or udf.
	Bench string
	// Scale sizes the generated data and carries every knob applied to
	// every query alike; its zero value defaults to harness.Tiny(). Seed is
	// the base seed — per-query seeds derive from it by query name, so a
	// query's result is identical no matter which client asks or when.
	// MCTSIterations is the per-planning-call rollout budget. Each query's engine and planner run
	// on up to GOMAXPROCS threads (a pure wall-time setting under the
	// determinism contracts).
	Scale harness.Scale
	// MaxConcurrent bounds admitted queries; further requests get 429.
	// 0 defaults to 8.
	MaxConcurrent int
	// DefaultTimeout and DefaultMaxTuples are the per-query budget defaults
	// and ceilings: a request may ask for less, never more.
	DefaultTimeout time.Duration
	// DefaultMaxTuples caps produced objects per query; 0 means unbounded.
	DefaultMaxTuples float64
	// CacheCapacity bounds the shared plan cache; 0 means the default.
	CacheCapacity int
	// HardenStats, when set, merges each completed query's hardened
	// statistics (cardinalities, Σ distinct counts) back into the seed store
	// of its query shape, one store per shape, as many as the plan cache
	// holds entries (least recently used first out). Later queries of that
	// shape then plan from observed facts instead of priors — but results
	// may depend on what ran before, so the cross-request determinism
	// guarantee is traded away. Off by default.
	HardenStats bool
	// Session is what every query's session starts from: its Prior,
	// Strategy, UniformRollout and cost Profile (loaded from monsoon-trace
	// calibrate output, fixed for the daemon's life) apply as they are. Scale is applied over it (harness.Scale.Apply),
	// and the daemon sets Seed, Stats, Sink, Metrics and Cache itself.
	Session core.Config
}

// namedQuery is one servable query: its parsed form plus the engine over its
// catalog. Engines are shared across all requests touching the same catalog;
// isolation comes from per-session Exec scopes, never from engine copies.
type namedQuery struct {
	q   *query.Query
	eng *engine.Engine
}

// Server is a running daemon core. Create with New, mount Handler (or call
// Serve), stop with Shutdown.
type Server struct {
	cfg Config
	// session is cfg.Session with the scale and the shared sink, registry
	// and cache applied: every request's core.Config but its seed and
	// statistics.
	session core.Config
	queries map[string]*namedQuery
	names   []string
	// adhoc executes parsed -sql requests; it shares the primary catalog.
	adhoc  *engine.Engine
	sqlReg *sqlish.Registry
	cache  *plancache.Cache
	// seeds holds the HardenStats seed store of each query shape
	// (core.QueryShape → *stats.Store), bounded like the plan cache; seedMu
	// makes finding or adding a shape's store one step.
	seedMu  sync.Mutex
	seeds   *plancache.Cache
	reg     *obs.Registry
	ring    *obs.TraceRing
	sem     chan struct{}
	started time.Time

	mu  sync.Mutex
	srv *obshttp.Server
}

// New generates the benchmark data and assembles the shared state. The
// returned server is ready to serve; no listener is created yet.
func New(cfg Config) (*Server, error) {
	if cfg.Scale.Name == "" {
		cfg.Scale = harness.Tiny()
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 8
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = cfg.Scale.Timeout
	}
	s := &Server{
		cfg:     cfg,
		queries: make(map[string]*namedQuery),
		sqlReg:  sqlish.NewRegistry(),
		cache:   plancache.New(cfg.CacheCapacity),
		reg:     obs.NewRegistry(),
		ring:    obs.NewTraceRing(0),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		started: time.Now(),
	}
	s.session = cfg.Scale.Apply(cfg.Session)
	s.session.Sink, s.session.Metrics, s.session.Cache = s.ring, s.reg, s.cache
	if cfg.HardenStats {
		s.seeds = plancache.New(cfg.CacheCapacity)
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	for name := range s.queries {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	return s, nil
}

// load generates the benchmark and indexes its queries. Engines are built one
// per distinct catalog (tpch/imdb/ott share one; udf generates per-query
// catalogs) so every request for the same data hits the same shared engine.
func (s *Server) load() error {
	bench := s.cfg.Bench
	if bench == "" {
		bench = "tpch"
	}
	specs, err := harness.Specs(bench, s.cfg.Scale)
	if err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	engines := make(map[*table.Catalog]*engine.Engine)
	for _, spec := range specs {
		eng, ok := engines[spec.Cat]
		if !ok {
			eng = engine.New(spec.Cat)
			engines[spec.Cat] = eng
		}
		s.queries[spec.Q.Name] = &namedQuery{q: spec.Q, eng: eng}
		if s.adhoc == nil {
			s.adhoc = eng
		}
	}
	return nil
}

// QueryNames lists the servable named queries, sorted.
func (s *Server) QueryNames() []string { return append([]string(nil), s.names...) }

// Handler returns the daemon's full route set: the obshttp telemetry routes
// (/debug/vars, /metrics, /traces/recent) plus /query, /queries, /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	obshttp.Mount(mux, s.reg, s.ring)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/queries", s.handleQueries)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_ms\":%d}\n", time.Since(s.started).Milliseconds())
	})
	return mux
}

// Serve binds addr and serves Handler on a background goroutine; the bound
// address is available as the returned server's Addr. Stop with Shutdown.
func (s *Server) Serve(addr string) (*obshttp.Server, error) {
	srv, err := obshttp.ServeHandler(addr, s.Handler())
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.srv = srv
	s.mu.Unlock()
	return srv, nil
}

// Shutdown gracefully stops a Serve'd daemon: the listener closes, in-flight
// queries drain until ctx expires. A daemon that never Serve'd is a no-op.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.srv
	s.srv = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// QueryRequest is the /query request body (POST JSON). GET requests map the
// "query" URL parameter onto Query.
type QueryRequest struct {
	// Query names a benchmark query (see /queries).
	Query string `json:"query,omitempty"`
	// SQL is an ad-hoc sqlish statement over the primary catalog; used when
	// Query is empty. Name labels it in traces (default "adhoc").
	SQL  string `json:"sql,omitempty"`
	Name string `json:"name,omitempty"`
	// TimeoutMS and MaxTuples tighten this query's budget below the
	// daemon's per-query ceilings; values above the ceiling are clamped.
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
	MaxTuples float64 `json:"max_tuples,omitempty"`
	// Seed overrides the deterministic per-query seed. Two requests with
	// the same query and seed always produce identical results.
	Seed *int64 `json:"seed,omitempty"`
}

// QueryResponse is the /query response body.
type QueryResponse struct {
	Query       string  `json:"query"`
	Rows        int     `json:"rows"`
	Aggregate   float64 `json:"aggregate"`
	Produced    float64 `json:"produced"`
	Executes    int     `json:"executes"`
	Actions     int     `json:"actions"`
	PlanMS      float64 `json:"plan_ms"`
	SigmaMS     float64 `json:"sigma_ms"`
	ExecMS      float64 `json:"exec_ms"`
	CacheHits   int     `json:"cache_hits"`
	CacheMisses int     `json:"cache_misses"`
	// ResultHash is an FNV-1a digest over the result rows' rendered values,
	// in row order. Clients use it to verify cross-client determinism
	// without shipping result sets around.
	ResultHash string  `json:"result_hash"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Seed       int64   `json:"seed"`
	Error      string  `json:"error,omitempty"`
}

func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.QueryNames())
}

// writeError emits a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	msg, _ := json.Marshal(fmt.Sprintf(format, args...))
	fmt.Fprintf(w, "{\"error\": %s}\n", msg)
}

// maxBodyBytes bounds a POST /query body; a larger one gets 413 before
// admission.
const maxBodyBytes = 1 << 20

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	switch r.Method {
	case http.MethodGet:
		req.Query = r.URL.Query().Get("query")
	case http.MethodPost:
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
				return
			}
			writeError(w, http.StatusBadRequest, "malformed request body: %v", err)
			return
		}
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET ?query=NAME or POST a JSON body")
		return
	}
	if req.Query == "" && strings.TrimSpace(req.SQL) == "" {
		writeError(w, http.StatusBadRequest, "request names no query: set \"query\" or \"sql\"")
		return
	}

	// Resolve before admission: a malformed request must not burn a slot.
	var q *query.Query
	var eng *engine.Engine
	if req.Query != "" {
		nq, ok := s.queries[req.Query]
		if !ok {
			writeError(w, http.StatusBadRequest, "unknown query %q (GET /queries lists them)", req.Query)
			return
		}
		q, eng = nq.q, nq.eng
	} else {
		name := req.Name
		if name == "" {
			name = "adhoc"
		}
		parsed, err := sqlish.Parse(name, req.SQL, s.sqlReg)
		if err != nil {
			writeError(w, http.StatusBadRequest, "parse error: %v", err)
			return
		}
		q, eng = parsed, s.adhoc
	}

	// Bounded admission: one pathological query cannot starve the rest —
	// excess load is refused immediately rather than queued behind it.
	select {
	case s.sem <- struct{}{}:
		defer func() {
			<-s.sem
			s.reg.Gauge("monsoond.inflight").Set(float64(len(s.sem)))
		}()
	default:
		s.reg.Counter("monsoond.rejected").Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "admission queue full (%d in flight)", cap(s.sem))
		return
	}
	s.reg.Counter("monsoond.requests").Inc()
	// Approximate by construction (concurrent admits race the reads), but
	// always a value the semaphore actually held.
	s.reg.Gauge("monsoond.inflight").Set(float64(len(s.sem)))

	resp, status := s.run(q, eng, req)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// budgetFor resolves a request's execution budget against the daemon's
// ceilings: requests tighten, never loosen.
func (s *Server) budgetFor(req QueryRequest) *engine.Budget {
	timeout := s.cfg.DefaultTimeout
	// Compared in milliseconds: a huge timeout_ms converted first would wrap.
	if req.TimeoutMS > 0 && req.TimeoutMS < timeout.Milliseconds() {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	maxTuples := s.cfg.DefaultMaxTuples
	if req.MaxTuples > 0 && (maxTuples == 0 || req.MaxTuples < maxTuples) {
		maxTuples = req.MaxTuples
	}
	return engine.NewBudget(timeout, maxTuples)
}

// run executes one admitted query through a fresh Session against the shared
// engine, cache, and cloned seed statistics.
func (s *Server) run(q *query.Query, eng *engine.Engine, req QueryRequest) (*QueryResponse, int) {
	seed := randx.Derive(s.cfg.Scale.Seed, "monsoond/"+q.Name)
	if req.Seed != nil {
		seed = *req.Seed
	}
	st, hardened := stats.New(), (*stats.Store)(nil)
	if s.cfg.HardenStats {
		hardened = s.seedFor(q)
		st = hardened.Clone()
	}
	budget := s.budgetFor(req)
	cfg := s.session
	cfg.Seed, cfg.Stats = seed, st
	start := time.Now()
	res, err := core.Run(q, eng, budget, cfg)
	// Once the reply is built — its result hash is the last thing that reads
	// the rows — the query's engine memory goes back to the free lists for the
	// next request, on the error path too.
	defer res.Release()
	elapsed := time.Since(start)
	s.reg.Histogram("monsoond.query.time").ObserveDuration(elapsed)
	resp := &QueryResponse{
		Query:       q.Name,
		Produced:    res.Produced,
		Executes:    res.Executes,
		Actions:     res.Actions,
		PlanMS:      float64(res.PlanTime) / float64(time.Millisecond),
		SigmaMS:     float64(res.SigmaTime) / float64(time.Millisecond),
		ExecMS:      float64(res.ExecTime) / float64(time.Millisecond),
		CacheHits:   res.CacheHits,
		CacheMisses: res.CacheMisses,
		ElapsedMS:   float64(elapsed) / float64(time.Millisecond),
		Seed:        seed,
	}
	if err != nil {
		resp.Error = err.Error()
		s.reg.Counter("monsoond.errors").Inc()
		if err == engine.ErrBudget {
			s.reg.Counter("monsoond.budget_exceeded").Inc()
			return resp, http.StatusGatewayTimeout
		}
		return resp, http.StatusInternalServerError
	}
	resp.Rows = res.Rows
	resp.Aggregate = res.Value
	resp.ResultHash = hashRelation(res.Output)
	if hardened != nil {
		hardened.MergeFrom(st)
	}
	return resp, http.StatusOK
}

// seedFor returns the HardenStats seed store of q's shape, adding an empty one
// for a shape not seen (or evicted) before.
func (s *Server) seedFor(q *query.Query) *stats.Store {
	shape := core.QueryShape(q)
	s.seedMu.Lock()
	defer s.seedMu.Unlock()
	if st, ok := s.seeds.Get(shape); ok {
		return st.(*stats.Store)
	}
	st := stats.New()
	s.seeds.Put(shape, st)
	return st
}

// hashRelation digests a result relation: FNV-1a over every value's rendered
// form (value.Value.AppendTo) in row-major order, with unit separators so
// field and row boundaries cannot alias. Rendering (rather than raw hashes)
// keeps the digest stable across processes and architectures. Every value is
// rendered into one reused buffer, so the digest makes no string per value.
func hashRelation(rel *table.Relation) string {
	h := fnv.New64a()
	if rel != nil {
		var buf []byte
		rowEnd := []byte{0x1e}
		for _, row := range rel.Rows {
			for _, v := range row {
				buf = append(v.AppendTo(buf[:0]), 0x1f)
				_, _ = h.Write(buf)
			}
			_, _ = h.Write(rowEnd)
		}
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}
