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
//	monsoond [-addr :8080] [-bench tpch|imdb|ott|udf] [-iterations N]
//	         [-max-concurrent N] [-timeout D] [-max-tuples N] [-cache-cap N]
//	         [-harden-stats] [-drain-timeout D]
//	         [-scale tiny|small|medium] [-seed N]
//	         [-shards N]
//	         [-calibration-file FILE] [-replan-threshold Q]
//
// The flags from -scale on are bound by harness.BindFlags, as in the other
// binaries (README: "Flags shared by the binaries").
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"monsoon/internal/daemon"
	"monsoon/internal/harness"
)

// options are monsoond's flags.
type options struct {
	shared                        *harness.Flags
	addr, bench                   string
	iterations, maxConc, cacheCap int
	timeout, drainTimeout         time.Duration
	maxTuples                     float64
	hardenStats                   bool
}

// bindFlags registers monsoond's flags on fs.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{shared: harness.BindFlags(fs, "tiny", harness.EngineFlags|harness.CostFlags)}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.bench, "bench", "tpch", "benchmark to serve: tpch, imdb, ott, or udf")
	fs.IntVar(&o.iterations, "iterations", 0, "MCTS rollout budget per planning call: 0 = the scale's default")
	fs.IntVar(&o.maxConc, "max-concurrent", 8, "admitted queries in flight; excess requests get 429")
	fs.DurationVar(&o.timeout, "timeout", 0, "per-query deadline ceiling: 0 = the scale's default")
	fs.Float64Var(&o.maxTuples, "max-tuples", 0, "per-query produced-objects ceiling: 0 = unbounded")
	fs.IntVar(&o.cacheCap, "cache-cap", 0, "shared plan cache capacity: 0 = default (512)")
	fs.BoolVar(&o.hardenStats, "harden-stats", false,
		"merge each query's hardened statistics into its query shape's seed store, so later queries of that shape plan from observed facts (trades cross-request determinism for better estimates)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful-shutdown drain window for in-flight queries")
	return o
}

func main() {
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "monsoond: stopped")
}

// run serves until SIGINT/SIGTERM, then drains in-flight queries.
func run(o *options) error {
	sc, err := o.shared.Scale()
	if err != nil {
		return err
	}
	if o.iterations != 0 {
		sc.MCTSIterations = o.iterations
	}
	session, cleanup, err := o.shared.Config()
	if err != nil {
		return err
	}
	defer cleanup()

	srv, err := daemon.New(daemon.Config{
		Bench:            o.bench,
		Scale:            sc,
		MaxConcurrent:    o.maxConc,
		DefaultTimeout:   o.timeout,
		DefaultMaxTuples: o.maxTuples,
		CacheCapacity:    o.cacheCap,
		HardenStats:      o.hardenStats,
		Session:          session,
	})
	if err != nil {
		return err
	}
	hs, err := srv.Serve(o.addr)
	if err != nil {
		return fmt.Errorf("cannot listen on %s: %v", o.addr, err)
	}
	fmt.Fprintf(os.Stderr, "monsoond serving %s (%s) on http://%s — %d queries, %d concurrent\n",
		o.bench, sc.Name, hs.Addr, len(srv.QueryNames()), o.maxConc)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	sig := <-sigs
	fmt.Fprintf(os.Stderr, "monsoond: %v — draining in-flight queries (up to %v)\n", sig, o.drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("monsoond: drain incomplete: %v", err)
	}
	return nil
}
