// Command monsoon-cli runs one benchmark query under one optimization option
// and prints what happened — including, for Monsoon, the full trace of MDP
// actions (plan edits, Σ statistics collections, EXECUTE rounds), an EXPLAIN
// ANALYZE rendering of every tree the EXECUTE rounds materialized, and
// optionally a JSONL span trace and a metrics dump.
//
// Usage:
//
//	monsoon-cli -bench tpch|imdb|ott|udf [-query NAME]
//	            [-opt monsoon|postgres|defaults|greedy|ondemand|sampling|skinner|lec|handwritten]
//	            [-prior NAME] [-explain] [-repeat N]
//	            [-scale tiny|small|medium] [-seed N]
//	            [-shards N]
//	            [-calibration-file FILE] [-replan-threshold Q]
//	            [-plan-cache] [-metrics] [-obs-addr ADDR] [-trace-json FILE]
//
// The flags from -scale on are bound by harness.BindFlags, as in the other
// binaries (README: "Flags shared by the binaries").
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
	"monsoon/internal/opt"
	"monsoon/internal/plan"
	"monsoon/internal/prior"
	"monsoon/internal/stats"
)

// options are monsoon-cli's flags.
type options struct {
	shared                   *harness.Flags
	bench, query, opt, prior string
	explain                  bool
	repeat                   int
}

// bindFlags registers monsoon-cli's flags on fs.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{shared: harness.BindFlags(fs, "tiny", harness.EngineFlags|harness.CostFlags|harness.TelemetryFlags)}
	fs.StringVar(&o.bench, "bench", "tpch", "benchmark: tpch, imdb, ott, or udf")
	fs.StringVar(&o.query, "query", "", "query name (empty lists the options)")
	fs.StringVar(&o.opt, "opt", "monsoon", "optimizer option: monsoon, postgres, defaults, greedy, ondemand, sampling, skinner, lec, handwritten (ott only)")
	fs.StringVar(&o.prior, "prior", "Spike and Slab", "Monsoon prior (Table 2 names)")
	fs.BoolVar(&o.explain, "explain", false, "print the chosen plan with estimates and actuals (postgres, defaults, greedy)")
	fs.IntVar(&o.repeat, "repeat", 1, "run the query N times on fresh engines; with -plan-cache, later runs take cached picks")
	return o
}

func main() {
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes the command. Every exit path returns through it, so the
// shared flags' cleanup (the -metrics dump, the trace file, the telemetry
// server) always runs.
func run(o *options) error {
	sc, err := o.shared.Scale()
	if err != nil {
		return err
	}
	specs, err := harness.Specs(o.bench, sc)
	if err != nil {
		return err
	}
	if o.query == "" {
		fmt.Printf("queries in %s:\n", o.bench)
		for _, s := range specs {
			fmt.Printf("  %s (%d tables, %d join preds)\n", s.Q.Name, s.Q.Aliases().Size(), len(s.Q.Joins))
		}
		return nil
	}
	var spec *harness.QuerySpec
	for i := range specs {
		if specs[i].Q.Name == o.query {
			spec = &specs[i]
		}
	}
	if spec == nil {
		return fmt.Errorf("query %q not in benchmark %s", o.query, o.bench)
	}

	cfg, cleanup, err := o.shared.Config()
	if err != nil {
		return err
	}
	defer cleanup()
	if o.opt == "monsoon" {
		cfg.Prior = prior.ByName(o.prior)
		if cfg.Prior == nil {
			return fmt.Errorf("unknown prior %q (Table 2 names, e.g. \"Spike and Slab\")", o.prior)
		}
		return runMonsoonTraced(*spec, sc, sc.Apply(cfg), o.repeat)
	}
	if o.explain {
		return runExplained(*spec, sc, o.opt, cfg.Sink)
	}
	option, err := pickOption(o.opt, cfg.Sink)
	if err != nil {
		return err
	}
	return report(option.Name(), option.Run(*spec, sc.Timeout, sc.MaxTuples, sc.Seed))
}

func pickOption(name string, sink obs.EventSink) (harness.Option, error) {
	switch name {
	case "postgres":
		return harness.Postgres{}, nil
	case "defaults":
		return harness.Defaults{}, nil
	case "greedy":
		return harness.Greedy{}, nil
	case "ondemand":
		return harness.OnDemand{Sink: sink}, nil
	case "sampling":
		return harness.Sampling{Sink: sink}, nil
	case "skinner":
		return harness.Skinner{}, nil
	case "lec":
		return harness.LEC{}, nil
	case "handwritten":
		return harness.HandWritten{}, nil
	}
	return nil, fmt.Errorf("unknown option %q", name)
}

// runMonsoonTraced runs the query through Monsoon under cfg repeat times,
// printing the first run's trace lines, EXPLAIN ANALYZE and accounting.
func runMonsoonTraced(spec harness.QuerySpec, sc harness.Scale, cfg core.Config, repeat int) error {
	if repeat < 1 {
		repeat = 1
	}
	fmt.Printf("Monsoon on %s (prior %s, %d MCTS iterations)\n", spec.Q.Name, cfg.Prior.Name(), cfg.Iterations)
	var res *core.Result
	var col *obs.Collector
	var elapsed time.Duration
	sink := cfg.Sink
	// Each repetition runs on a fresh engine, so only planning knowledge — the
	// plan cache, when enabled — carries over; the full trace and EXPLAIN
	// ANALYZE come from the first run.
	for i := 0; i < repeat; i++ {
		budget := &engine.Budget{MaxTuples: sc.MaxTuples, Deadline: time.Now().Add(sc.Timeout)}
		cfg.Sink = nil
		if i == 0 {
			col = &obs.Collector{}
			cfg.Sink = obs.Multi(col, sink, obs.MessageSink(func(s string) { fmt.Println("  " + s) }))
		}
		start := time.Now()
		r, err := core.Run(spec.Q, engine.New(spec.Cat), budget, cfg)
		if err != nil {
			return fmt.Errorf("run %d failed after %v: %v", i+1, time.Since(start), err)
		}
		if i == 0 {
			res, elapsed = r, time.Since(start)
		}
		if repeat > 1 {
			line := fmt.Sprintf("run %d: plan %v, exec %v", i+1, r.PlanTime, r.ExecTime)
			if cfg.Cache != nil {
				line += fmt.Sprintf(", cache hits/misses %d/%d", r.CacheHits, r.CacheMisses)
			}
			fmt.Println(line)
		}
	}
	fmt.Printf("done in %v: %d rows (aggregate %.6g)\n", elapsed, res.Rows, res.Value)
	fmt.Printf("rounds: %d EXECUTEs, %d actions, %d Σ operators\n", res.Executes, res.Actions, res.SigmaOps)
	fmt.Printf("breakdown: MCTS %v, Σ %v, execution %v; %.0f objects produced\n",
		res.PlanTime, res.SigmaTime, res.ExecTime, res.Produced)
	if cfg.ReplanThreshold > 0 {
		fmt.Printf("replans: %d triggered (threshold %g), %d cache invalidations\n",
			res.Replans, cfg.ReplanThreshold, res.ReplanInvalidations)
	}
	if cfg.Cache != nil {
		s := cfg.Cache.Stats()
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
	return nil
}

func report(name string, out harness.Outcome) error {
	if out.Err != nil {
		return fmt.Errorf("%s failed: %v", name, out.Err)
	}
	if out.TimedOut {
		fmt.Printf("%s: TIMEOUT after %v (%.0f objects produced)\n", name, out.Time, out.Produced)
		return nil
	}
	fmt.Printf("%s: %d rows (aggregate %.6g) in %v; %.0f objects produced\n",
		name, out.Rows, out.Value, out.Time, out.Produced)
	return nil
}

// runExplained plans with the named classical option, prints the EXPLAIN
// tree (estimates first, then actuals after execution), and reports the run.
func runExplained(spec harness.QuerySpec, sc harness.Scale, optName string, sink obs.EventSink) error {
	ex := engine.New(spec.Cat).NewExec(engine.ExecConfig{Obs: obs.NewTracer(sink)})
	var st *stats.Store
	switch optName {
	case "postgres":
		st = opt.CollectFullStats(spec.Q, spec.Cat)
	case "defaults", "greedy":
		st = stats.New()
		ex.Engine().SeedBaseStats(spec.Q, st)
	default:
		return fmt.Errorf("-explain supports postgres, defaults, and greedy (got %q)", optName)
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
		return fmt.Errorf("planning failed: %v", err)
	}
	budget := &engine.Budget{MaxTuples: sc.MaxTuples, Deadline: time.Now().Add(sc.Timeout)}
	rel, er, execErr := ex.ExecTree(spec.Q, tree, budget)
	fmt.Printf("%s plan for %s:\n%s", optName, spec.Q.Name, cost.Explain(dv, tree, er.Counts))
	if execErr != nil {
		return fmt.Errorf("execution aborted: %v", execErr)
	}
	v, err := engine.FinalAggregate(spec.Q, rel)
	if err != nil {
		return err
	}
	fmt.Printf("result: %d rows (aggregate %.6g); %.0f objects produced\n", rel.Count(), v, er.Produced)
	return nil
}
