// Command monsoon-cli runs one benchmark query under one optimization option
// and prints what happened — including, for Monsoon, the full trace of MDP
// actions (plan edits, Σ statistics collections, EXECUTE rounds), an EXPLAIN
// ANALYZE rendering of every tree the EXECUTE rounds materialized, and
// optionally a JSONL span trace and a metrics dump.
//
// Usage:
//
//	monsoon-cli -bench tpch|imdb|ott|udf [-query NAME] [-opt monsoon|postgres|defaults|greedy|ondemand|sampling|skinner] [-prior NAME] [-scale tiny|small|medium] [-seed N] [-parallelism N] [-batch-size N] [-shards N] [-plan-parallelism N] [-plan-cache] [-repeat N] [-calibration-file FILE] [-replan-threshold Q] [-trace-json FILE] [-metrics]
//
// Without -query, the available query names for the benchmark are listed.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"monsoon/internal/core"
	"monsoon/internal/cost"
	"monsoon/internal/engine"
	"monsoon/internal/harness"
	"monsoon/internal/obs"
	"monsoon/internal/obs/obshttp"
	"monsoon/internal/opt"
	"monsoon/internal/plan"
	"monsoon/internal/plancache"
	"monsoon/internal/prior"
	"monsoon/internal/stats"
)

func main() {
	benchName := flag.String("bench", "tpch", "benchmark: tpch, imdb, ott, or udf")
	queryName := flag.String("query", "", "query name (empty lists the options)")
	optName := flag.String("opt", "monsoon", "optimizer option: monsoon, postgres, defaults, greedy, ondemand, sampling, skinner, lec, handwritten (ott only)")
	priorName := flag.String("prior", "Spike and Slab", "Monsoon prior (Table 2 names)")
	scaleName := flag.String("scale", "tiny", "data scale: tiny, small, or medium")
	seed := flag.Int64("seed", 1, "seed")
	par := flag.Int("parallelism", 0, "engine worker count: 0 = all cores, 1 = serial (results are identical either way)")
	batchSize := flag.Int("batch-size", 0, "engine pipeline batch size: 0 = default (4096), negative = unbounded/materialized (results are identical at any size)")
	shards := flag.Int("shards", 0, "partition the benchmark catalog into N hash shards for exchange-style execution: 0 or 1 = unsharded (results are identical at any count)")
	planPar := flag.Int("plan-parallelism", 0, "MCTS planner thread count: 0 = all cores, 1 = serial (plans are identical either way; monsoon only)")
	explain := flag.Bool("explain", false, "print the chosen plan with estimates and actuals (postgres, defaults, greedy)")
	traceJSON := flag.String("trace-json", "", "write the structured trace (spans, messages, estimates) as JSON lines to FILE")
	metrics := flag.Bool("metrics", false, "dump the run's metrics registry to stderr")
	planCache := flag.Bool("plan-cache", false, "plan through a session-shared plan cache (monsoon only)")
	repeat := flag.Int("repeat", 1, "run the query N times on fresh engines; with -plan-cache, later runs replay cached plans")
	obsAddr := flag.String("obs-addr", "", "serve live telemetry (/debug/vars, /metrics, /traces/recent) on this address while the process runs")
	calibFile := flag.String("calibration-file", "", "price MCTS simulations with this calibrated cost profile (JSON from monsoon-trace calibrate; monsoon only)")
	replanThr := flag.Float64("replan-threshold", 0, "q-error at which an EXECUTE round forces a mid-query replan with hardened statistics (0 disables; monsoon only)")
	flag.Parse()

	sc, err := harness.ScaleNamed(*scaleName)
	if err != nil {
		fail("%v", err)
	}
	sc.Seed = *seed
	sc.Parallelism = *par
	sc.BatchSize = *batchSize
	sc.PlanParallelism = *planPar
	sc.Shards = *shards

	specs, err := harness.Specs(*benchName, sc)
	if err != nil {
		fail("%v", err)
	}
	if *queryName == "" {
		fmt.Printf("queries in %s:\n", *benchName)
		for _, s := range specs {
			fmt.Printf("  %s (%d tables, %d join preds)\n", s.Q.Name, s.Q.Aliases().Size(), len(s.Q.Joins))
		}
		return
	}
	var spec *harness.QuerySpec
	for i := range specs {
		if specs[i].Q.Name == *queryName {
			spec = &specs[i]
		}
	}
	if spec == nil {
		fail("query %q not in benchmark %s", *queryName, *benchName)
	}

	var jsonSink obs.EventSink
	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		if err != nil {
			fail("cannot create trace file: %v", err)
		}
		defer f.Close()
		jsonSink = obs.NewJSONL(f)
	}
	var reg *obs.Registry
	if *metrics || *obsAddr != "" {
		reg = obs.NewRegistry()
	}
	if *metrics {
		defer func() {
			fmt.Fprintln(os.Stderr, "metrics:")
			reg.Dump(os.Stderr)
		}()
	}
	sink := jsonSink
	if *obsAddr != "" {
		ring := obs.NewTraceRing(0)
		srv, err := obshttp.Serve(*obsAddr, reg, ring)
		if err != nil {
			fail("telemetry server: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry at http://%s\n", srv.Addr)
		sink = obs.Multi(jsonSink, ring)
	}

	var profile *cost.CostProfile
	if *calibFile != "" {
		var err error
		if profile, err = cost.LoadProfile(*calibFile); err != nil {
			fail("calibration file: %v", err)
		}
	}

	if *optName == "monsoon" {
		runMonsoonTraced(*spec, sc, *priorName, sink, reg, *planCache, *repeat, profile, *replanThr)
		return
	}
	ec := engine.ExecConfig{Parallelism: sc.Parallelism, BatchSize: sc.BatchSize}
	if *explain {
		runExplained(*spec, sc, ec, *optName, sink)
		return
	}
	o := pickOption(*optName, sink)
	out := o.Run(*spec, ec, sc.Timeout, sc.MaxTuples, sc.Seed)
	report(o.Name(), out)
}

func pickOption(name string, sink obs.EventSink) harness.Option {
	switch name {
	case "postgres":
		return harness.Postgres{}
	case "defaults":
		return harness.Defaults{}
	case "greedy":
		return harness.Greedy{}
	case "ondemand":
		return harness.OnDemand{Sink: sink}
	case "sampling":
		return harness.Sampling{Sink: sink}
	case "skinner":
		return harness.Skinner{}
	case "lec":
		return harness.LEC{}
	case "handwritten":
		return harness.HandWritten{}
	default:
		fail("unknown option %q", name)
		return nil
	}
}

func runMonsoonTraced(spec harness.QuerySpec, sc harness.Scale, priorName string, sink obs.EventSink, reg *obs.Registry, planCache bool, repeat int, profile *cost.CostProfile, replanThr float64) {
	p := prior.ByName(priorName)
	if p == nil {
		fail("unknown prior %q (Table 2 names, e.g. \"Spike and Slab\")", priorName)
	}
	if repeat < 1 {
		repeat = 1
	}
	var cache *plancache.Cache
	if planCache {
		cache = plancache.New(0)
	}
	fmt.Printf("Monsoon on %s (prior %s, %d MCTS iterations)\n", spec.Q.Name, p.Name(), sc.MCTSIterations)
	var res *core.Result
	var col *obs.Collector
	var elapsed time.Duration
	// Each repetition runs on a fresh engine, so only planning knowledge — the
	// plan cache, when enabled — carries over; the full trace and EXPLAIN
	// ANALYZE come from the first run.
	for i := 0; i < repeat; i++ {
		budget := &engine.Budget{MaxTuples: sc.MaxTuples, Deadline: time.Now().Add(sc.Timeout)}
		cfg := core.Config{
			Prior:           p,
			Iterations:      sc.MCTSIterations,
			Seed:            sc.Seed,
			Metrics:         reg,
			Parallelism:     sc.Parallelism,
			BatchSize:       sc.BatchSize,
			PlanParallelism: sc.PlanParallelism,
			Cache:           cache,
			Profile:         profile,
			ReplanThreshold: replanThr,
		}
		if i == 0 {
			col = &obs.Collector{}
			cfg.Sink = obs.Multi(col, sink, obs.MessageSink(func(s string) { fmt.Println("  " + s) }))
		}
		start := time.Now()
		r, err := core.Run(spec.Q, engine.New(spec.Cat), budget, cfg)
		if err != nil {
			fail("run %d failed after %v: %v", i+1, time.Since(start), err)
		}
		if i == 0 {
			res, elapsed = r, time.Since(start)
		}
		if repeat > 1 {
			line := fmt.Sprintf("run %d: plan %v, exec %v", i+1, r.PlanTime, r.ExecTime)
			if cache != nil {
				line += fmt.Sprintf(", cache hits/misses %d/%d", r.CacheHits, r.CacheMisses)
			}
			fmt.Println(line)
		}
	}
	fmt.Printf("done in %v: %d rows (aggregate %.6g)\n", elapsed, res.Rows, res.Value)
	fmt.Printf("rounds: %d EXECUTEs, %d actions, %d Σ operators\n", res.Executes, res.Actions, res.SigmaOps)
	fmt.Printf("breakdown: MCTS %v, Σ %v, execution %v; %.0f objects produced\n",
		res.PlanTime, res.SigmaTime, res.ExecTime, res.Produced)
	if replanThr > 0 {
		fmt.Printf("replans: %d triggered (threshold %g), %d cache invalidations\n",
			res.Replans, replanThr, res.ReplanInvalidations)
	}
	if cache != nil {
		s := cache.Stats()
		fmt.Printf("plan cache: %d hits, %d misses, %d entries\n", s.Hits, s.Misses, s.Entries)
	}

	// EXPLAIN ANALYZE over the trees the EXECUTE rounds materialized: the
	// estimates come from the recorded estimate-vs-actual events (est = the
	// prior's expectation frozen just before each round ran), the wall times
	// from the run's assembled span tree — inclusive per plan node, plus the
	// self component net of child operators.
	ests, actuals := map[string]float64{}, map[string]float64{}
	times := map[string]time.Duration{}
	for _, e := range col.Estimates {
		ests[e.Expr], actuals[e.Expr] = e.Est, e.Actual
		if e.Dur > 0 {
			times[e.Expr] = e.Dur
		}
	}
	incl, selfs := obs.OperatorTimes(obs.BuildSpanTree(col.Spans))
	for k, d := range incl {
		times[k] = d
	}
	if len(res.Executed) > 0 {
		fmt.Println("\nEXPLAIN ANALYZE (executed trees, in order):")
		for i, tree := range res.Executed {
			fmt.Printf("-- tree %d --\n%s", i+1, cost.ExplainAnalyze(spec.Q, tree, ests, actuals, times, selfs))
		}
	}
	fmt.Printf("trace: %d spans, %d trace lines, %d estimate records\n",
		len(col.Spans), len(col.Messages), len(col.Estimates))
}

func report(name string, out harness.Outcome) {
	if out.Err != nil {
		fail("%s failed: %v", name, out.Err)
	}
	if out.TimedOut {
		fmt.Printf("%s: TIMEOUT after %v (%.0f objects produced)\n", name, out.Time, out.Produced)
		return
	}
	fmt.Printf("%s: %d rows (aggregate %.6g) in %v; %.0f objects produced\n",
		name, out.Rows, out.Value, out.Time, out.Produced)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// runExplained plans with the named classical option, prints the EXPLAIN
// tree (estimates first, then actuals after execution), and reports the run.
func runExplained(spec harness.QuerySpec, sc harness.Scale, ec engine.ExecConfig, optName string, sink obs.EventSink) {
	ec.Obs = obs.NewTracer(sink)
	ex := engine.New(spec.Cat).NewExec(ec)
	var st *stats.Store
	switch optName {
	case "postgres":
		st = opt.CollectFullStats(spec.Q, spec.Cat)
	case "defaults", "greedy":
		st = stats.New()
		ex.Engine().SeedBaseStats(spec.Q, st)
	default:
		fail("-explain supports postgres, defaults, and greedy (got %q)", optName)
	}
	dv := &cost.Deriver{Q: spec.Q, St: st, Miss: cost.DefaultMiss(0.1), Obs: ex.Obs}
	var tree *plan.Node
	var err error
	if optName == "greedy" {
		tree, err = opt.GreedyPlan(spec.Q, st)
	} else {
		tree, err = opt.BestPlan(spec.Q, dv)
	}
	if err != nil {
		fail("planning failed: %v", err)
	}
	budget := &engine.Budget{MaxTuples: sc.MaxTuples, Deadline: time.Now().Add(sc.Timeout)}
	rel, er, execErr := ex.ExecTree(spec.Q, tree, budget)
	fmt.Printf("%s plan for %s:\n%s", optName, spec.Q.Name, cost.Explain(dv, tree, er.Counts))
	if execErr != nil {
		fail("execution aborted: %v", execErr)
	}
	v, err := engine.FinalAggregate(spec.Q, rel)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("result: %d rows (aggregate %.6g); %.0f objects produced\n", rel.Count(), v, er.Produced)
}
