// Command monsoon-bench regenerates the paper's evaluation: every table
// (1–8) and figure (1–3) of §6, at a configurable scale, plus the
// ablation, estimate-accuracy and trace-corpus workloads.
//
// Usage:
//
//	monsoon-bench [-exp all|table1|figure1|figure2|table2|table3|table4|table5|table6|table7|figure3|table8|ablation|estimates|tracecorpus]
//	              [-v] [-obs-linger DUR] [-cpuprofile FILE] [-memprofile FILE]
//	              [-scale tiny|small|medium] [-seed N]
//	              [-shards N]
//	              [-calibration-file FILE] [-replan-threshold Q]
//	              [-plan-cache] [-metrics] [-obs-addr ADDR] [-trace-json FILE]
//
// The flags from -scale on are bound by harness.BindFlags, as in the other
// binaries (README: "Flags shared by the binaries"); -scale defaults to small.
//
// -exp all runs every step but tracecorpus, which runs only when named.
// Output goes to stdout; progress (with -v) and the -metrics dump to stderr.
// With -trace-json, every Monsoon run of the campaign streams its structured
// trace (spans, messages, estimate records) to FILE as JSON lines. With
// -obs-addr, a telemetry server exposes the campaign's live metrics
// (/debug/vars, /metrics) and recently completed query traces
// (/traces/recent) while it runs; -obs-linger keeps it up after the last
// experiment so CI can scrape it. The -cpuprofile and -memprofile flags write
// pprof profiles of the campaign for `go tool pprof`. A failed run writes its
// profiles, trace file and -metrics dump too.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"monsoon/internal/harness"
)

// options are monsoon-bench's flags.
type options struct {
	shared                 *harness.Flags
	exp                    string
	verbose                bool
	obsLinger              time.Duration
	cpuProfile, memProfile string
}

// bindFlags registers monsoon-bench's flags on fs.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{shared: harness.BindFlags(fs, "small", harness.EngineFlags|harness.CostFlags|harness.TelemetryFlags)}
	fs.StringVar(&o.exp, "exp", "all", "experiment: all, table1..table8, figure1..figure3, ablation, estimates, tracecorpus")
	fs.BoolVar(&o.verbose, "v", false, "print per-query progress to stderr")
	fs.DurationVar(&o.obsLinger, "obs-linger", 0, "keep the -obs-addr server up this long after the campaign finishes (for scraping in CI)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the campaign to FILE")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to FILE on exit")
	return o
}

func main() {
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(run(o))
}

// run executes the campaign and returns the process exit code. Every exit
// path returns through it, so the deferred profile writes and the shared
// flags' cleanup always run.
func run(o *options) int {
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot create CPU profile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cannot start CPU profile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot create heap profile: %v\n", err)
			return 2
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

	sc, err := o.shared.Scale()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cfg, cleanup, err := o.shared.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer cleanup()
	var progress io.Writer
	if o.verbose {
		progress = os.Stderr
	}
	r := &harness.Runner{Scale: sc, Progress: progress, Config: cfg}
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
		if o.exp != s.name && (o.exp != "all" || s.onlyExplicit) {
			continue
		}
		ran = true
		fmt.Fprintf(w, "==== %s (scale %s) ====\n", s.name, sc.Name)
		if err := s.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", s.name, err)
			return 1
		}
		fmt.Fprintln(w)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", o.exp)
		return 2
	}
	if addr := o.shared.TelemetryAddr(); addr != "" && o.obsLinger > 0 {
		fmt.Fprintf(os.Stderr, "lingering %s for telemetry scrapes at http://%s\n", o.obsLinger, addr)
		time.Sleep(o.obsLinger)
	}
	return 0
}
