// Command monsoon-bench regenerates the paper's evaluation: every table
// (1–8) and figure (1–3) of §6, at a configurable scale, plus the
// ablation, estimate-accuracy and trace-corpus workloads.
//
// Usage:
//
//	monsoon-bench [-scale tiny|small|medium] [-exp all|table1|figure1|figure2|table2|table3|table4|table5|table6|table7|figure3|table8|ablation|estimates|tracecorpus] [-seed N] [-parallelism N] [-batch-size N] [-shards N] [-plan-parallelism N] [-plan-cache] [-calibration-file FILE] [-replan-threshold Q] [-v] [-metrics] [-obs-addr ADDR] [-obs-linger DUR] [-trace-json FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// -exp all runs every step but tracecorpus, which runs only when named.
// Output goes to stdout; progress (with -v) and the -metrics dump to stderr.
// With -trace-json, every Monsoon run of the campaign streams its structured
// trace (spans, messages, estimate records) to FILE as JSON lines. With
// -obs-addr, a telemetry server exposes the campaign's live metrics
// (/debug/vars, /metrics) and recently completed query traces
// (/traces/recent) while it runs; -obs-linger keeps it up after the last
// experiment so CI can scrape it. The -cpuprofile and -memprofile flags write
// pprof profiles of the campaign for `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"monsoon/internal/cost"
	"monsoon/internal/harness"
	"monsoon/internal/obs"
	"monsoon/internal/obs/obshttp"
)

func main() {
	scaleName := flag.String("scale", "small", "campaign scale: tiny, small, or medium")
	exp := flag.String("exp", "all", "experiment: all, table1..table8, figure1..figure3, ablation, estimates, tracecorpus")
	seed := flag.Int64("seed", 1, "master seed")
	par := flag.Int("parallelism", 0, "engine worker count: 0 = all cores, 1 = serial (results are identical either way)")
	batchSize := flag.Int("batch-size", 0, "engine pipeline batch size: 0 = default (4096), negative = unbounded/materialized (results are identical at any size)")
	shards := flag.Int("shards", 0, "partition every generated catalog into N hash shards for exchange-style execution: 0 or 1 = unsharded (results are identical at any count)")
	planPar := flag.Int("plan-parallelism", 0, "MCTS planner thread count: 0 = all cores, 1 = serial (plans are identical either way)")
	verbose := flag.Bool("v", false, "print per-query progress to stderr")
	metrics := flag.Bool("metrics", false, "dump the campaign's accumulated Monsoon metrics to stderr on exit")
	obsAddr := flag.String("obs-addr", "", "serve live telemetry (/debug/vars, /metrics, /traces/recent) on this address, e.g. localhost:6060")
	obsLinger := flag.Duration("obs-linger", 0, "keep the -obs-addr server up this long after the campaign finishes (for scraping in CI)")
	traceJSON := flag.String("trace-json", "", "write the structured traces of the campaign's Monsoon runs as JSON lines to FILE")
	planCache := flag.Bool("plan-cache", false, "share one plan cache across the campaign's Monsoon runs (hit rates in -metrics)")
	calibFile := flag.String("calibration-file", "", "price the campaign's Monsoon runs with this calibrated cost profile (JSON from monsoon-trace calibrate)")
	replanThr := flag.Float64("replan-threshold", 0, "q-error at which the campaign's Monsoon runs force a mid-query replan (0 disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to FILE")
	memProfile := flag.String("memprofile", "", "write a heap profile to FILE on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot create CPU profile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cannot start CPU profile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot create heap profile: %v\n", err)
			os.Exit(2)
		}
		// Written on exit via defer, after the campaign's allocations settle.
		defer func() {
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "cannot write heap profile: %v\n", err)
			}
		}()
	}

	sc, err := harness.ScaleNamed(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc.Seed = *seed
	sc.Parallelism = *par
	sc.BatchSize = *batchSize
	sc.PlanParallelism = *planPar
	sc.PlanCache = *planCache
	sc.Shards = *shards

	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	r := &harness.Runner{Scale: sc, Progress: progress, ReplanThreshold: *replanThr}
	if *calibFile != "" {
		p, err := cost.LoadProfile(*calibFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "calibration file: %v\n", err)
			os.Exit(2)
		}
		r.Profile = p
	}
	if *metrics || *obsAddr != "" {
		r.Metrics = obs.NewRegistry()
	}
	if *metrics {
		defer func() {
			fmt.Fprintln(os.Stderr, "metrics (Monsoon runs of this campaign):")
			r.Metrics.Dump(os.Stderr)
		}()
	}
	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot create trace file: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		r.Sink = obs.NewJSONL(f)
	}
	if *obsAddr != "" {
		ring := obs.NewTraceRing(0)
		srv, err := obshttp.Serve(*obsAddr, r.Metrics, ring)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot serve telemetry: %v\n", err)
			os.Exit(2)
		}
		// Registered before the -obs-linger defer below, so (LIFO) the
		// linger sleep finishes before the listener stops.
		defer srv.Close()
		addr := srv.Addr
		fmt.Fprintf(os.Stderr, "telemetry at http://%s\n", addr)
		if r.Sink != nil {
			r.Sink = obs.Multi(r.Sink, ring)
		} else {
			r.Sink = ring
		}
		if *obsLinger > 0 {
			defer func() {
				fmt.Fprintf(os.Stderr, "lingering %s for telemetry scrapes at http://%s\n", *obsLinger, addr)
				time.Sleep(*obsLinger)
			}()
		}
	}
	w := os.Stdout

	type step struct {
		name string
		run  func() error
		// onlyExplicit keeps utility workloads (not paper artifacts) out of
		// -exp all; they run only when named.
		onlyExplicit bool
	}
	steps := []step{
		{name: "table1", run: func() error { harness.Table1(w); return nil }},
		{name: "figure1", run: func() error { return harness.Figure1(w, sc.Seed) }},
		{name: "figure2", run: func() error { harness.Figure2(w); return nil }},
		{name: "table2", run: func() error { return r.Table2(w) }},
		{name: "table3", run: func() error { return r.Table3(w) }},
		{name: "table4", run: func() error { return r.Table4(w) }},
		{name: "table5", run: func() error { return r.Table5(w) }},
		{name: "table6", run: func() error { return r.Table6(w) }},
		{name: "table7", run: func() error { return r.Table7(w) }},
		{name: "figure3", run: func() error { return r.Figure3(w) }},
		{name: "table8", run: func() error { return r.Table8(w) }},
		{name: "ablation", run: func() error { return r.Ablation(w) }},
		{name: "estimates", run: func() error { return r.Estimates(w) }},
		{name: "tracecorpus", run: func() error { return r.TraceCorpus(w) }, onlyExplicit: true},
	}
	ran := false
	for _, s := range steps {
		if *exp != s.name && (*exp != "all" || s.onlyExplicit) {
			continue
		}
		ran = true
		fmt.Fprintf(w, "==== %s (scale %s) ====\n", s.name, sc.Name)
		if err := s.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", s.name, err)
			os.Exit(1)
		}
		fmt.Fprintln(w)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
