// Command monsoond is the Monsoon serving daemon: a long-lived HTTP server
// that generates one benchmark's data at startup and then executes queries
// against it concurrently — many core.Sessions over one shared engine, plan
// cache, and statistics seed store, each request isolated in its own
// execution scope with its own budget.
//
// Endpoints:
//
//	POST /query        {"query": "tpch-q3"} or {"sql": "SELECT ..."} with
//	                   optional timeout_ms, max_tuples, seed
//	GET  /query?query=NAME
//	GET  /queries      names of the servable benchmark queries
//	GET  /healthz      liveness
//	GET  /debug/vars   metrics snapshot (JSON)
//	GET  /metrics      Prometheus text exposition
//	GET  /traces/recent span trees of recent queries
//
// Per-query budgets (deadline + produced-objects cap) and a bounded admission
// semaphore keep one pathological query from starving the rest; excess load
// is refused with 429 rather than queued. SIGINT/SIGTERM drain in-flight
// queries before the process exits 0.
//
// Usage:
//
//	monsoond [-addr :8080] [-bench tpch|imdb|ott|udf] [-scale tiny|small|medium]
//	         [-seed N] [-parallelism N] [-batch-size N] [-shards N]
//	         [-plan-parallelism N] [-iterations N] [-max-concurrent N]
//	         [-timeout D] [-max-tuples N] [-cache-cap N] [-harden-stats]
//	         [-calibration-file FILE] [-replan-threshold Q] [-drain-timeout D]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"monsoon/internal/cost"
	"monsoon/internal/daemon"
	"monsoon/internal/harness"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	benchName := flag.String("bench", "tpch", "benchmark to serve: tpch, imdb, ott, or udf")
	scaleName := flag.String("scale", "tiny", "data scale: tiny, small, or medium")
	seed := flag.Int64("seed", 1, "base seed; per-query seeds derive from it deterministically")
	par := flag.Int("parallelism", 0, "engine worker count per query: 0 = all cores, 1 = serial")
	batchSize := flag.Int("batch-size", 0, "engine pipeline batch size: 0 = default (4096), negative = materialized")
	shards := flag.Int("shards", 0, "partition the served catalogs into N hash shards for exchange-style execution: 0 or 1 = unsharded (answers are identical at any count)")
	planPar := flag.Int("plan-parallelism", 0, "MCTS planner thread count per query: 0 = all cores")
	iterations := flag.Int("iterations", 0, "MCTS rollout budget per planning call: 0 = the scale's default")
	maxConc := flag.Int("max-concurrent", 8, "admitted queries in flight; excess requests get 429")
	timeout := flag.Duration("timeout", 0, "per-query deadline ceiling: 0 = the scale's default")
	maxTuples := flag.Float64("max-tuples", 0, "per-query produced-objects ceiling: 0 = unbounded")
	cacheCap := flag.Int("cache-cap", 0, "shared plan cache capacity: 0 = default (512)")
	hardenStats := flag.Bool("harden-stats", false,
		"merge each query's hardened statistics back into the shared seed store and self-calibrate the cost model from served traces (trades cross-request determinism for better estimates)")
	calibFile := flag.String("calibration-file", "",
		"price MCTS simulations with this calibrated cost profile (JSON from monsoon-trace calibrate); with -harden-stats the online calibrator takes over as traces accrue")
	replanThr := flag.Float64("replan-threshold", 0,
		"q-error at which an EXECUTE round forces a mid-query replan with hardened statistics (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain window for in-flight queries")
	flag.Parse()

	sc, err := harness.ScaleNamed(*scaleName)
	if err != nil {
		fail("%v", err)
	}
	sc.Seed = *seed
	sc.Parallelism = *par
	sc.BatchSize = *batchSize
	sc.Shards = *shards
	sc.PlanParallelism = *planPar
	if *iterations != 0 {
		sc.MCTSIterations = *iterations
	}

	var profile *cost.CostProfile
	if *calibFile != "" {
		var err error
		if profile, err = cost.LoadProfile(*calibFile); err != nil {
			fail("calibration file: %v", err)
		}
	}

	srv, err := daemon.New(daemon.Config{
		Bench:            *benchName,
		Scale:            sc,
		MaxConcurrent:    *maxConc,
		DefaultTimeout:   *timeout,
		DefaultMaxTuples: *maxTuples,
		CacheCapacity:    *cacheCap,
		HardenStats:      *hardenStats,
		Profile:          profile,
		ReplanThreshold:  *replanThr,
	})
	if err != nil {
		fail("%v", err)
	}
	hs, err := srv.Serve(*addr)
	if err != nil {
		fail("cannot listen on %s: %v", *addr, err)
	}
	fmt.Fprintf(os.Stderr, "monsoond serving %s (%s) on http://%s — %d queries, %d concurrent\n",
		*benchName, *scaleName, hs.Addr, len(srv.QueryNames()), *maxConc)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	sig := <-sigs
	fmt.Fprintf(os.Stderr, "monsoond: %v — draining in-flight queries (up to %v)\n", sig, *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "monsoond: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "monsoond: stopped")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
