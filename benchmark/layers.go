package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"monsoon/internal/core"
	"monsoon/internal/cost"
	"monsoon/internal/engine"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/plancache"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/sketch"
	"monsoon/internal/sqlish"
	"monsoon/internal/stats"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// Pass counts of the traced replay: enough operations for a mean per layer,
// few enough that the whole traced run stays near the length of an untraced one.
const (
	tracedWarmPasses = 2 // 100 requests
	tracedColdPasses = 2 // 50 requests, every one a full MCTS run
	tracedScanPasses = 2 // 24 trees
)

// executedOp is the engine's share of one operation: the trees it
// materialized, in order, re-executable in a fresh scope without the planner.
type executedOp struct {
	q     *query.Query
	eng   *engine.Engine
	trees []*plan.Node
}

// replay is what one in-process pass over an operation list yielded.
type replay struct {
	wall      time.Duration
	attempted int
	failures  []string
	// latMS is each operation's in-process latency.
	latMS []float64
	// The rest is filled by traced passes only.
	served    []*served
	executed  []executedOp
	execAlloc uint64
	cache     plancache.Stats
}

// tracedOps is the operation list the traced pass replays: the same lists the
// untraced run sends, cut to a fixed number of passes.
func tracedOps(cfg runConfig, names []string) ([]op, error) {
	if cfg.spec.open {
		return openSchedule(names, cfg.seed, cfg.seconds)
	}
	passes := tracedWarmPasses
	switch {
	case cfg.spec.cold:
		passes = tracedColdPasses
	case cfg.spec.bench == "":
		passes = tracedScanPasses
	}
	var ops []op
	for p := 0; p < passes; p++ {
		ops = append(ops, closedPass(cfg.spec, names, cfg.seed, p)...)
	}
	return ops, nil
}

// replayServe runs ops through a fresh in-process server, one at a time. A
// workload whose requests hit the plan cache gets the warm-up pass first, as
// its daemon does.
func replayServe(cfg runConfig, lib *library, ops []op, rec *recorder) (*replay, error) {
	srv := lib.newServer()
	if !cfg.spec.cold {
		for _, n := range lib.names {
			if _, err := srv.serve(0, op{Query: n}, nil); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	want := cfg.gold.Serve[cfg.spec.bench]
	before := srv.cache.Stats()
	r := &replay{attempted: len(ops)}
	start := time.Now()
	for i, o := range ops {
		t0 := time.Now()
		got, err := srv.serve(i, o, rec)
		r.latMS = append(r.latMS, float64(time.Since(t0))/float64(time.Millisecond))
		if err != nil {
			r.failures = append(r.failures, err.Error())
			continue
		}
		g := want[o.Query]
		if o.Cold {
			g.ResultHash, g.Produced = "", got.answer.Produced
		}
		if got.answer != g {
			r.failures = append(r.failures, fmt.Sprintf("%s: answer %+v, golden %+v", o.Query, got.answer, g))
		}
		if rec != nil {
			r.served = append(r.served, got)
			r.executed = append(r.executed, executedOp{q: got.q, eng: lib.queries[o.Query].eng, trees: got.executed})
			r.execAlloc += got.execAlloc
		}
	}
	r.wall = time.Since(start)
	after := srv.cache.Stats()
	r.cache = plancache.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions, Entries: after.Entries}
	return r, nil
}

// replayScan runs engine_scan's trees in-process; traced, each ExecTree
// carries an obs tracer whose operator spans are imported under it.
func replayScan(cfg runConfig, set *scanSet, ops []op, rec *recorder) (*replay, error) {
	r := &replay{attempted: len(ops)}
	start := time.Now()
	for i, o := range ops {
		t, ok := set.byName(o.Query)
		if !ok {
			return nil, fmt.Errorf("unknown tree %q", o.Query)
		}
		var col *obs.Collector
		var ec engine.ExecConfig
		if rec != nil {
			col = &obs.Collector{}
			ec.Obs = obs.NewTracer(col)
		}
		t0 := time.Now()
		root := rec.start(i, nil, "bench", "scan.op")
		sp := rec.start(i, root, "engine", "engine.exec_tree")
		a0 := heapAllocated()
		got, _, err := execTree(set.eng.NewExec(ec), t)
		alloc := heapAllocated() - a0
		sp.end()
		root.end()
		r.latMS = append(r.latMS, float64(time.Since(t0))/float64(time.Millisecond))
		if fail := checkScan(cfg.gold.Scan, t.name, got, err); fail != "" {
			r.failures = append(r.failures, t.name+": "+fail)
			continue
		}
		if rec != nil {
			rec.importObs(i, []*span{sp}, col.Spans)
			r.executed = append(r.executed, executedOp{q: t.q, eng: set.eng, trees: []*plan.Node{t.tree}})
			r.execAlloc += alloc
			st := stats.New()
			set.eng.SeedBaseStats(t.q, st)
			r.served = append(r.served, &served{q: t.q, answer: got, executed: []*plan.Node{t.tree}, store: st, spans: col.Spans})
		}
	}
	r.wall = time.Since(start)
	return r, nil
}

// daemonPass is what the traced run learns from the real daemon: what a
// request costs over HTTP beyond what the daemon itself reports, what the
// daemon refused, and how much memory it held.
type daemonPass struct {
	sendLatMS  []float64 // send → reply
	overheadUS []float64 // send → reply, minus the reply's elapsed_ms
	lateRatio  float64
	maxLagMS   float64
	rejected   float64
	budgetOver float64
	peakRSSMB  float64
	attempted  int
	failedWhy  []string
}

// runDaemonPass sends the traced operation list to a real daemon: one caller
// for the closed-loop workloads (so the latency compares with the in-process
// replay), the open loop on its schedule for serve_open.
func runDaemonPass(cfg runConfig, ops []op) (*daemonPass, error) {
	d, _, err := setUpDaemon(cfg, 1)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	do := daemonDo(d, cfg.gold.Serve[cfg.spec.bench])
	var samples []sample
	if cfg.spec.open {
		samples, _ = openLoop(ops, openConns, do)
	} else {
		samples, _ = closedLoop(ops, 1, do)
	}
	p := &daemonPass{attempted: len(samples)}
	for _, s := range samples {
		if s.Fail != "" {
			p.failedWhy = append(p.failedWhy, s.op.Query+": "+s.Fail)
			continue
		}
		send := float64(s.Latency-s.Lag) / float64(time.Millisecond)
		p.sendLatMS = append(p.sendLatMS, send)
		p.overheadUS = append(p.overheadUS, (send-s.ServerMS)*1000)
	}
	if cfg.spec.open {
		p.lateRatio, p.maxLagMS = lateness(samples)
	}
	if p.rejected, err = d.counter("monsoond.rejected"); err != nil {
		return nil, err
	}
	if p.budgetOver, err = d.counter("monsoond.budget_exceeded"); err != nil {
		return nil, err
	}
	d.stop()
	p.peakRSSMB = float64(d.maxRSSKB) / 1024
	return p, nil
}

// runTraced is the per-layer run: the workload's operation list replayed
// in-process, single-threaded, once untraced and once with a span around every
// call into a layer, then direct loops over inputs captured from that replay
// for the layers too small to show in a span.
func runTraced(cfg runConfig, spec *benchSpec) (result, error) {
	m := make(map[string]float64)
	var untraced, traced *replay
	var cats []*table.Catalog
	var genTime time.Duration
	var liveBytes uint64
	var dp *daemonPass
	rec := newRecorder()

	if cfg.spec.bench == "" {
		before := liveHeap()
		set, err := newScanSet()
		if err != nil {
			return result{}, err
		}
		liveBytes = liveHeap() - before
		cats, genTime = []*table.Catalog{set.cat}, set.genTime
		ops, err := tracedOps(cfg, set.names())
		if err != nil {
			return result{}, err
		}
		if err := warmUp(cfg, set.names(), 1, scanDo(set, cfg.gold.Scan)); err != nil {
			return result{}, err
		}
		if untraced, err = replayScan(cfg, set, ops, nil); err != nil {
			return result{}, err
		}
		if traced, err = replayScan(cfg, set, ops, rec); err != nil {
			return result{}, err
		}
		dp = &daemonPass{}
	} else {
		lib, err := loadLibrary(cfg.spec.bench)
		if err != nil {
			return result{}, err
		}
		cats, genTime, liveBytes = lib.cats, lib.genTime, lib.liveBytes
		sort.Strings(lib.names) // the daemon serves its names sorted
		ops, err := tracedOps(cfg, lib.names)
		if err != nil {
			return result{}, err
		}
		if dp, err = runDaemonPass(cfg, ops); err != nil {
			return result{}, err
		}
		if untraced, err = replayServe(cfg, lib, ops, nil); err != nil {
			return result{}, err
		}
		if traced, err = replayServe(cfg, lib, ops, rec); err != nil {
			return result{}, err
		}
	}
	settle(rec.spans)
	if err := writeSpans(filepath.Join(outDir, "trace-"+cfg.spec.name+".jsonl"), rec.spans); err != nil {
		return result{}, err
	}

	prof := spanMetrics(m, rec.spans, traced)
	m["obs.trace_overhead_ratio"] = ratio(traced.wall.Seconds(), untraced.wall.Seconds())
	m["plancache.hit_ratio"] = traced.cache.HitRate()
	m["plancache.evictions"] = float64(traced.cache.Evictions)

	m["daemon.overhead_us"] = median(dp.overheadUS)
	m["daemon.library_ratio"] = ratio(median(dp.sendLatMS), median(untraced.latMS))
	m["daemon.rejected"] = dp.rejected
	m["daemon.budget_exceeded"] = dp.budgetOver
	m["daemon.peak_rss_mb"] = dp.peakRSSMB
	m["loadgen.late_ratio"] = dp.lateRatio
	m["loadgen.max_lag_ms"] = dp.maxLagMS

	rows := 0
	for _, c := range cats {
		rows += c.TotalRows()
	}
	m["table.generate_rows_per_s"] = ratio(float64(rows), genTime.Seconds())
	m["table.row_bytes"] = ratio(float64(liveBytes), float64(rows))
	microMetrics(m, traced, cats[0], prof)

	// Last, because it re-partitions the catalogs in place.
	t0 := time.Now()
	for _, c := range cats {
		c.Shard(4)
	}
	m["table.shard_build_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	shardedPass, err := executeOnly(traced.executed)
	if err != nil {
		return result{}, fmt.Errorf("sharded pass: %w", err)
	}
	m["engine.sharded_s4_pass_s"] = shardedPass.Seconds()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["engine.peak_rss_mb"] = float64(ru.Maxrss) / 1024
	}

	metricsOut, err := report(spec.PerLayer, m)
	if err != nil {
		return result{}, err
	}
	attempted := dp.attempted + untraced.attempted + traced.attempted
	failures := append(append(append([]string(nil), dp.failedWhy...), untraced.failures...), traced.failures...)
	fmt.Printf("  traced pass: %d operations in-process, %d spans -> %s/trace-%s.jsonl\n",
		traced.attempted, len(rec.spans), outDir, cfg.spec.name)
	for _, d := range spec.PerLayer {
		fmt.Printf("  %-38s %14.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
	for i, f := range failures {
		if i < 5 {
			fmt.Println("  FAILED", f)
		}
	}
	return result{Correct: len(failures) == 0, Attempted: attempted, Failed: len(failures), Metrics: metricsOut}, nil
}

// spanMetrics derives the metrics that come from spans: the benchmark's own
// around each core call, and the program's obs spans for MCTS calls and engine
// operators. Per-operation figures are means over the operations, so the
// core.* phases add up to the mean operation. It returns the operator cost
// profile calibrated from the pass, empty if the pass ran no operator.
func spanMetrics(m map[string]float64, spans []*span, r *replay) *cost.CostProfile {
	ops := float64(r.attempted - len(r.failures))
	perOp := func(name string, unit time.Duration) float64 {
		return ratio(totalDuration(spans, name)/float64(unit), ops)
	}
	m["core.new_session_us"] = perOp("core.new_session", time.Microsecond)
	m["core.plan_round_ms"] = perOp("core.plan_round", time.Millisecond)
	m["core.execute_round_ms"] = perOp("core.execute_round", time.Millisecond)
	m["core.finalize_ms"] = perOp("core.finalize", time.Millisecond)

	var actions, rounds, replans float64
	for _, s := range r.served {
		actions += float64(s.actions)
		rounds += float64(s.rounds)
		replans += float64(s.replans)
	}
	m["core.actions_per_query"] = ratio(actions, ops)
	m["core.rounds_per_query"] = ratio(rounds, ops)
	m["core.replans"] = replans

	// Shares of the traced pass's time, by the layer whose code was running.
	total := 0.0
	for _, s := range spans {
		if s.Parent == 0 {
			total += float64(s.End - s.Start)
		}
	}
	by := exclusiveByLayer(spans)
	m["engine.time_share"] = ratio(float64(by["engine"]), total)
	m["mcts.time_share"] = ratio(float64(by["mcts"]), total)
	m["core.plan_round_share"] = ratio(totalDuration(spans, "core.plan_round"), total)

	// MCTS calls and engine operators, from the program's own spans. The
	// cost.Calibrator is the operator meter: it already turns spans into
	// seconds per object per kind.
	var planNS, rollouts, planCalls, treeNS, treeCount, produced float64
	cal := cost.NewCalibrator()
	for _, s := range r.served {
		for _, sp := range s.spans {
			switch sp.Kind {
			case obs.KPlan:
				if sp.Str[obs.AttrCacheHit] != "true" {
					planCalls++
					planNS += float64(sp.Dur)
					rollouts += sp.Num["rollouts"]
				}
			case obs.KMaterialize:
				treeCount++
				treeNS += float64(sp.Dur)
				produced += sp.Produced
			}
			cal.AddSpan(sp)
		}
	}
	m["mcts.plan_call_ms"] = ratio(planNS/1e6, planCalls)
	m["mcts.iter_us"] = ratio(planNS/1e3, rollouts)
	m["mcts.calls_per_query"] = ratio(planCalls, ops)
	m["engine.exec_tree_ms"] = ratio(treeNS/1e6, treeCount)
	m["engine.objects_per_s"] = ratio(produced, treeNS/1e9)
	m["engine.alloc_bytes_per_object"] = ratio(float64(r.execAlloc), produced)

	p, err := cal.Profile()
	if err != nil {
		p = &cost.CostProfile{}
	}
	for name, rate := range map[string]cost.Rate{
		"scan": p.Scan, "reuse": p.Reuse, "hash_build": p.HashBuild, "hash_probe": p.HashProbe,
		"nested_loop": p.NestedLoop, "sigma": p.Sigma, "materialize": p.Materialize,
	} {
		// A kind the pass never ran reports 0, not the calibrator's filled-in mean.
		m["engine.rate."+name+"_ns_per_object"] = ratio(rate.Seconds*1e9, rate.Objects)
	}
	return p
}

// executeOnly re-executes every operation's trees, each operation in a fresh
// scope, and returns the wall time: the engine's work with no planner.
func executeOnly(opsExecuted []executedOp) (time.Duration, error) {
	start := time.Now()
	for _, e := range opsExecuted {
		ex := e.eng.NewExec(engine.ExecConfig{})
		for _, t := range e.trees {
			if _, _, err := ex.ExecTree(e.q, t, &engine.Budget{}); err != nil {
				return 0, fmt.Errorf("%s %s: %w", e.q.Name, t, err)
			}
		}
	}
	return time.Since(start), nil
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// perCallNS times fn over five batches of n calls and returns the median
// batch's nanoseconds per call.
func perCallNS(n int, fn func(i int)) float64 {
	var batches []float64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(b*n + i)
		}
		batches = append(batches, float64(time.Since(t0))/float64(n))
	}
	return median(batches)
}

// sink keeps the loops' results alive so the compiler cannot drop the calls.
var sink uint64

// microMetrics times, by direct loops, the layers too small to show as spans.
// Inputs are captured from the traced replay: its queries, the trees it
// executed, the statistics it hardened.
func microMetrics(m map[string]float64, r *replay, cat *table.Catalog, prof *cost.CostProfile) {
	// The distinct queries, and the most hardened statistics store seen.
	var queries []*query.Query
	seen := make(map[string]bool)
	var store *stats.Store
	for _, s := range r.served {
		if !seen[s.q.Name] {
			seen[s.q.Name] = true
			queries = append(queries, s.q)
		}
		if store == nil || s.store.CountEntries()+s.store.MeasuredEntries() > store.CountEntries()+store.MeasuredEntries() {
			store = s.store
		}
	}

	// value and expr: the largest table's rows.
	var big *table.Relation
	for _, n := range cat.Names() {
		if rel := cat.MustGet(n); big == nil || rel.Count() > big.Count() {
			big = rel
		}
	}
	m["value.sizeof_bytes"] = float64(unsafe.Sizeof(value.Value{}))
	width := len(big.Schema.Cols)
	m["value.hash_ns"] = perCallNS(200000, func(i int) {
		sink += big.Rows[(i/width)%big.Count()][i%width].Hash()
	})
	m["expr.udf_eval_ns"] = udfEvalNS(queries, cat)

	// stats: clone and sign the hardened store, as every request and every
	// plan-cache lookup do.
	m["stats.clone_us"] = perCallNS(2000, func(int) { sink += uint64(store.Clone().CountEntries()) }) / 1e3
	m["stats.signature_us"] = perCallNS(2000, func(int) { sink += uint64(len(store.BucketSignature())) }) / 1e3

	// plancache: keys shaped like the session's (query shape, then the
	// initial state's outcome key), one per distinct query and suffix.
	var shapes []string
	for _, q := range queries {
		st := stats.New()
		for _, rel := range q.Rels {
			st.SetCount(stats.RawKey(rel.Alias), float64(cat.TotalRows()))
		}
		shape := q.Name
		for _, j := range q.Joins {
			shape += ";" + j.String()
		}
		shapes = append(shapes, shape+"\x00"+core.NewInitialState(q, st).OutcomeKey())
	}
	key := func(i int) string { return fmt.Sprintf("%s#%d", shapes[i%len(shapes)], i/len(shapes)) }
	pc := plancache.New(0)
	for i := 0; i < plancache.DefaultCapacity; i++ {
		pc.Put(key(i), i)
	}
	m["plancache.get_hit_ns"] = perCallNS(100000, func(i int) {
		if _, ok := pc.Get(key(i % plancache.DefaultCapacity)); ok {
			sink++
		}
	})
	m["plancache.get_miss_ns"] = perCallNS(100000, func(i int) {
		if _, ok := pc.Get(key(plancache.DefaultCapacity + i)); ok {
			sink++
		}
	})
	// Every put is of a new key into a full cache: an insert and an eviction.
	m["plancache.put_ns"] = perCallNS(100000, func(i int) { pc.Put(key(plancache.DefaultCapacity+i), i) })

	// sqlish: the TPC-H suite queries rendered as text (the only suite whose
	// UDFs all have a textual form), parsed as the daemon parses ad-hoc SQL.
	texts := tpchTexts()
	reg := sqlish.NewRegistry()
	objs := heapObjects()
	parses := 0
	m["sqlish.parse_us"] = perCallNS(2000, func(i int) {
		if _, err := sqlish.Parse("adhoc", texts[i%len(texts)], reg); err == nil {
			parses++
		}
	}) / 1e3
	m["sqlish.parse_allocs"] = ratio(float64(heapObjects()-objs), float64(parses))

	// sketch: the Σ pass's HyperLogLog at the engine's default precision.
	h, other := sketch.NewHLL(14), sketch.NewHLL(14)
	for i := 0; i < 100000; i++ {
		other.Add(uint64(i) * 0x9e3779b97f4a7c15)
	}
	m["sketch.hll_add_ns"] = perCallNS(1000000, func(i int) { h.Add(uint64(i) * 0xbf58476d1ce4e5b9) })
	m["sketch.hll_merge_us"] = perCallNS(500, func(int) { h.Merge(other) }) / 1e3
	m["sketch.hll_estimate_us"] = perCallNS(500, func(int) { sink += uint64(h.Estimate()) }) / 1e3

	// prior: one draw of the default prior, as every simulated unknown takes.
	rng := randx.New(dataSeed)
	pr := prior.Default()
	m["prior.draw_ns"] = perCallNS(1000000, func(int) { sink += uint64(pr.Sample(rng, 1e5, 1e4)) })

	// cost: Deriver.PlanCost over the executed trees, flat and profiled, each
	// call on a store holding only the table sizes (as a first simulation sees).
	m["cost.plan_cost_ns"] = planCostNS(r.executed, nil)
	m["cost.plan_cost_profiled_ns"] = planCostNS(r.executed, prof)
}

// planCostNS is the mean time of one Deriver.PlanCost call over every executed
// tree whose leaves are base tables. PlanCost records what it derives, so each
// call gets its own store, cloned outside the timed region.
func planCostNS(opsExecuted []executedOp, prof *cost.CostProfile) float64 {
	type job struct {
		dv   *cost.Deriver
		tree *plan.Node
	}
	var jobs []job
	for _, e := range opsExecuted {
		base := stats.New()
		e.eng.SeedBaseStats(e.q, base)
		if len(e.trees) == 0 {
			continue
		}
		// The first tree of an operation reads base tables only; later ones
		// reuse intermediates whose counts this store does not hold.
		jobs = append(jobs, job{&cost.Deriver{Q: e.q, St: base, Miss: cost.DefaultMiss(0.1), Profile: prof}, e.trees[0]})
	}
	if len(jobs) == 0 {
		return 0
	}
	const rounds = 20
	var total time.Duration
	for r := 0; r < rounds; r++ {
		for _, j := range jobs {
			dv := *j.dv
			dv.St = j.dv.St.Clone()
			t0 := time.Now()
			sink += uint64(dv.PlanCost(j.tree))
			total += time.Since(t0)
		}
	}
	return float64(total) / float64(rounds*len(jobs))
}

// udfEvalNS is the time of one evaluation of a join term's UDF over its base
// table: the first single-table join term of the first query that has one.
func udfEvalNS(queries []*query.Query, cat *table.Catalog) float64 {
	for _, q := range queries {
		for _, j := range q.Joins {
			for _, t := range []*query.Term{j.L, j.R} {
				aliases := t.Fn.Aliases()
				if len(aliases) != 1 {
					continue
				}
				name, ok := q.TableOf(aliases[0])
				if !ok {
					continue
				}
				rel, ok := cat.Get(name)
				if !ok || rel.Count() == 0 {
					continue
				}
				rel = rel.Renamed(aliases[0])
				b, ok := t.Fn.Bind(rel.Schema)
				if !ok {
					continue
				}
				return perCallNS(200000, func(i int) {
					if b.Eval(rel.Rows[i%rel.Count()]).IsNull() {
						sink++
					}
				})
			}
		}
	}
	return 0
}
