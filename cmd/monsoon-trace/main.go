// Command monsoon-trace analyzes JSONL traces produced by
// monsoon-bench/monsoon-cli -trace-json, and diffs traces (or span-count
// baselines) against each other:
//
//	monsoon-trace report trace.jsonl
//	    Per-operator-kind latency percentiles (p50/p95/p99 from the same
//	    log₂ histograms the metrics registry uses) plus a q-error summary.
//
//	monsoon-trace diff [-timing-tol 0.25] [-workers] a.jsonl b.jsonl
//	    Compare span counts per kind (exact) and, when -timing-tol is set
//	    and both inputs are full traces, per-kind total wall time within a
//	    relative tolerance. Either input may be a span-count baseline
//	    ({"kind","count"} lines); counts are then the only comparison.
//	    Worker spans follow GOMAXPROCS, so they are machine-dependent and
//	    excluded from the comparison unless -workers is set. Exit status 1
//	    on drift.
//
//	monsoon-trace calibrate [-o profile.json] trace.jsonl...
//	    Learn a per-operator-kind cost profile (seconds per object produced)
//	    from the operator spans of one or more trace corpora, print the
//	    per-kind rate table to stderr, and write the profile JSON to stdout
//	    (or -o). Feed the profile back with -calibration-file on
//	    monsoon-cli, monsoon-bench, or monsoond.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"monsoon/internal/cost"
	"monsoon/internal/obs/tracefile"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "report":
		report(os.Args[2:])
	case "diff":
		diff(os.Args[2:])
	case "calibrate":
		calibrate(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "monsoon-trace: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage:")
	fmt.Fprintln(os.Stderr, "  monsoon-trace report <trace.jsonl>")
	fmt.Fprintln(os.Stderr, "  monsoon-trace diff [-timing-tol frac] [-workers] <a.jsonl> <b.jsonl>")
	fmt.Fprintln(os.Stderr, "  monsoon-trace calibrate [-o profile.json] <trace.jsonl>...")
}

func report(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	tr, err := tracefile.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	if tr.CountsOnly {
		fatal(fmt.Errorf("%s is a span-count baseline; report needs a full trace", fs.Arg(0)))
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "kind\tcount\ttotal\tp50\tp95\tp99\tmax")
	for _, s := range tr.KindReport() {
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%v\t%v\t%v\n",
			s.Kind, s.Count, s.Total, s.P50, s.P95, s.P99, s.Max)
	}
	w.Flush()

	q := tr.QErrors()
	if q.Joins+q.Leaves > 0 {
		fmt.Printf("\nq-error: %d records (%d joins, %d leaves)\n", q.Joins+q.Leaves, q.Joins, q.Leaves)
		fmt.Printf("  geo-mean %.3f  max %.3f  misses %d\n", q.GeoQ, q.MaxQ, q.Misses)
	}
	if tr.Messages > 0 {
		fmt.Printf("\n%d trace messages, %d spans total\n", tr.Messages, len(tr.Spans))
	}
}

func diff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	tol := fs.Float64("timing-tol", 0, "relative tolerance for per-kind total wall time (0 disables timing comparison)")
	workers := fs.Bool("workers", false, "include the machine-dependent worker span counts and timings in the comparison")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
		os.Exit(2)
	}
	a, err := tracefile.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	b, err := tracefile.ReadFile(fs.Arg(1))
	if err != nil {
		fatal(err)
	}
	diffs := tracefile.Diff(a, b, tracefile.DiffOptions{TimingTol: *tol, IncludeWorkers: *workers})
	if len(diffs) == 0 {
		fmt.Printf("traces match (%s vs %s)\n", describe(a), describe(b))
		return
	}
	for _, d := range diffs {
		fmt.Println(d)
	}
	fmt.Fprintf(os.Stderr, "%d difference(s) between %s and %s\n", len(diffs), fs.Arg(0), fs.Arg(1))
	os.Exit(1)
}

// calibrate folds the operator spans of one or more trace corpora into a
// cost.Calibrator and emits the learned per-operator-kind profile as JSON.
// The human-readable rate table goes to stderr so the JSON on stdout stays
// pipeable.
func calibrate(args []string) {
	fs := flag.NewFlagSet("calibrate", flag.ExitOnError)
	out := fs.String("o", "", "write the profile JSON to this file instead of stdout")
	fs.Parse(args)
	if fs.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cal := cost.NewCalibrator()
	for _, path := range fs.Args() {
		tr, err := tracefile.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		if tr.CountsOnly {
			fatal(fmt.Errorf("%s is a span-count baseline; calibrate needs full traces", path))
		}
		cal.AddSpans(tr.Spans)
	}
	p, err := cal.Profile()
	if err != nil {
		fatal(err)
	}
	fmt.Fprint(os.Stderr, p.Table())
	js, err := p.WriteJSON()
	if err != nil {
		fatal(err)
	}
	js = append(js, '\n')
	if *out == "" {
		os.Stdout.Write(js)
		return
	}
	if err := os.WriteFile(*out, js, 0o644); err != nil {
		fatal(err)
	}
}

// describe summarizes one diff input: span total for full traces, counted
// total for span-count baselines (which carry no span records).
func describe(t *tracefile.Trace) string {
	if t.CountsOnly {
		n := 0
		for _, c := range t.Counts {
			n += c
		}
		return fmt.Sprintf("baseline of %d spans", n)
	}
	return fmt.Sprintf("%d spans", len(t.Spans))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "monsoon-trace:", err)
	os.Exit(1)
}
