package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime/metrics"
	"time"

	"monsoon/internal/bench/tpch"
	"monsoon/internal/bench/udf"
	"monsoon/internal/core"
	"monsoon/internal/daemon"
	"monsoon/internal/engine"
	"monsoon/internal/harness"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/plancache"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/stats"
	"monsoon/internal/table"
)

// library is what monsoond loads at start-up, rebuilt in-process for the
// traced pass: the served benchmark's catalogs at the small scale, one shared
// engine per catalog, and the named queries. It mirrors daemon.load so the
// traced pass runs the same data through the same calls.
type library struct {
	names      []string
	queries    map[string]libraryQuery
	cats       []*table.Catalog
	iterations int
	timeout    time.Duration
	// genTime and liveBytes are the cost of generating the catalogs.
	genTime   time.Duration
	liveBytes uint64
}

type libraryQuery struct {
	q   *query.Query
	eng *engine.Engine
}

func loadLibrary(bench string) (*library, error) {
	sc := harness.Small()
	l := &library{queries: make(map[string]libraryQuery), iterations: sc.MCTSIterations, timeout: sc.Timeout}
	engines := make(map[*table.Catalog]*engine.Engine)
	add := func(q *query.Query, cat *table.Catalog) {
		eng, ok := engines[cat]
		if !ok {
			eng = engine.New(cat)
			engines[cat] = eng
			l.cats = append(l.cats, cat)
		}
		l.names = append(l.names, q.Name)
		l.queries[q.Name] = libraryQuery{q: q, eng: eng}
	}
	before := liveHeap()
	t0 := time.Now()
	switch bench {
	case "tpch":
		cat := tpch.Generate(tpch.Config{ScaleFactor: sc.TPCHSF, Seed: dataSeed})
		l.genTime = time.Since(t0)
		for _, q := range tpch.Queries() {
			add(q, cat)
		}
	case "udf":
		suite := udf.Generate(udf.Config{Titles: sc.UDFTitles, ScaleFactor: sc.UDFSF, Seed: dataSeed})
		l.genTime = time.Since(t0)
		for _, qc := range suite.All() {
			add(qc.Query, qc.Cat)
		}
	default:
		return nil, fmt.Errorf("no in-process library for benchmark %q", bench)
	}
	l.liveBytes = liveHeap() - before
	return l, nil
}

// server is the daemon's shared serving state: plan cache, seed statistics,
// metrics registry and trace ring, all at the daemon's defaults.
type server struct {
	lib   *library
	cache *plancache.Cache
	seed  *stats.Store
	reg   *obs.Registry
	ring  *obs.TraceRing
}

func (l *library) newServer() *server {
	return &server{lib: l, cache: plancache.New(0), seed: stats.New(), reg: obs.NewRegistry(), ring: obs.NewTraceRing(0)}
}

// served is what one in-process operation produced and what the traced pass
// captured from it for the per-layer loops.
type served struct {
	q      *query.Query
	answer goldenAnswer
	// actions, rounds and replans are the session's accounting.
	actions, rounds, replans int
	// executed lists the trees the session materialized, in order.
	executed []*plan.Node
	// store is the session's statistics after the run (hardened).
	store *stats.Store
	// execAlloc is the heap allocated inside the EXECUTE rounds.
	execAlloc uint64
	// spans are the program's own obs spans of this operation (traced only).
	spans []*obs.Span
}

// serve runs one operation through the calls monsoond's /query handler makes
// for a named query — clone the seed statistics, open a session, alternate
// PlanRound and ExecuteRound, finalize, hash and encode the reply — with a
// span recorded around each call when rec is non-nil.
func (s *server) serve(i int, o op, rec *recorder) (*served, error) {
	nq, ok := s.lib.queries[o.Query]
	if !ok {
		return nil, fmt.Errorf("unknown query %q", o.Query)
	}
	seed := randx.Derive(dataSeed, "monsoond/"+nq.q.Name)
	if o.Cold {
		seed = o.Seed
	}
	root := rec.start(i, nil, "daemon", "daemon.op")

	sp := rec.start(i, root, "stats", "stats.clone")
	st := s.seed.Clone()
	sp.end()

	// The daemon always plans with its trace ring attached; the traced pass
	// adds a collector beside it to import the program's own spans.
	var col *obs.Collector
	sink := obs.EventSink(s.ring)
	if rec != nil {
		col = &obs.Collector{}
		sink = obs.Multi(s.ring, col)
	}
	budget := &engine.Budget{Deadline: time.Now().Add(s.lib.timeout)}
	cfg := core.Config{Prior: prior.Default(), Iterations: s.lib.iterations, Seed: seed,
		Stats: st, Sink: sink, Metrics: s.reg, Cache: s.cache}

	sp = rec.start(i, root, "core", "core.new_session")
	sess := core.NewSession(nq.q, nq.eng, budget, cfg)
	sp.end()
	defer sess.Close()

	phases := []*span{sp}
	out := &served{q: nq.q, store: st}
	for {
		sp = rec.start(i, root, "core", "core.plan_round")
		execute, err := sess.PlanRound()
		sp.end()
		phases = append(phases, sp)
		if err != nil {
			return nil, fmt.Errorf("%s: plan round: %w", o.Query, err)
		}
		if !execute {
			break
		}
		a0 := heapAllocated()
		sp = rec.start(i, root, "core", "core.execute_round")
		err = sess.ExecuteRound()
		sp.end()
		phases = append(phases, sp)
		out.execAlloc += heapAllocated() - a0
		if err != nil {
			return nil, fmt.Errorf("%s: execute round: %w", o.Query, err)
		}
	}
	sp = rec.start(i, root, "core", "core.finalize")
	res, err := sess.Finalize()
	sess.Close() // ends the query's own root span, as the daemon's core.Run does
	sp.end()
	phases = append(phases, sp)
	if err != nil {
		return nil, fmt.Errorf("%s: finalize: %w", o.Query, err)
	}

	sp = rec.start(i, root, "daemon", "daemon.encode")
	hash := hashRelation(res.Output)
	_, err = json.Marshal(daemon.QueryResponse{Query: nq.q.Name, Rows: res.Rows, Aggregate: res.Value,
		Produced: res.Produced, Executes: res.Executes, Actions: res.Actions, ResultHash: hash, Seed: seed})
	sp.end()
	root.end()
	if err != nil {
		return nil, err
	}
	if col != nil {
		rec.importObs(i, phases, col.Spans)
		out.spans = col.Spans
	}

	out.answer = goldenAnswer{Rows: res.Rows, Aggregate: res.Value, Produced: res.Produced}
	if !o.Cold {
		out.answer.ResultHash = hash
	}
	out.actions, out.rounds, out.replans = res.Actions, res.Executes, res.Replans
	out.executed = res.Executed
	return out, nil
}

// hashRelation is the daemon's result digest (FNV-1a over every value's
// rendered form, unit separators between fields and rows). The daemon keeps
// its copy private; the goldens check that the two agree.
func hashRelation(rel *table.Relation) string {
	h := fnv.New64a()
	if rel != nil {
		for _, row := range rel.Rows {
			for _, v := range row {
				_, _ = h.Write([]byte(v.String()))
				_, _ = h.Write([]byte{0x1f})
			}
			_, _ = h.Write([]byte{0x1e})
		}
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// heapAllocated is the cumulative bytes allocated on the heap, read without
// stopping the world (runtime.ReadMemStats would pause the pass it measures).
func heapAllocated() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// heapObjects is the cumulative count of heap allocations.
func heapObjects() uint64 { return readMetric("/gc/heap/allocs:objects") }

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
