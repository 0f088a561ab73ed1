package harness

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"monsoon/internal/bench/imdb"
	"monsoon/internal/bench/ott"
	"monsoon/internal/bench/tpch"
	"monsoon/internal/bench/udf"
	"monsoon/internal/cost"
	"monsoon/internal/engine"
	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/opt"
	"monsoon/internal/plan"
	"monsoon/internal/plancache"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/stats"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// Scale bundles every knob of an experiment campaign. The paper ran on a
// 36-core EC2 box against 20–100 GB databases with a 20-minute timeout; this
// repository's engine is in-memory, so scales are smaller and the timeout
// proportionally tighter — relative shapes, not absolute seconds, are the
// reproduction target (see EXPERIMENTS.md).
type Scale struct {
	Name           string
	TPCHSF         float64
	OTTSF          float64
	IMDBTitles     int
	IMDBBootstrap  int
	IMDBQueryCount int
	UDFTitles      int
	UDFSF          float64
	Timeout        time.Duration
	MaxTuples      float64
	MCTSIterations int
	Seed           int64
	// Parallelism and BatchSize are the engine knobs every execution of the
	// campaign runs with (see engine.ExecConfig): 0 = runtime.GOMAXPROCS(0)
	// workers and the default 4096-row batch, Parallelism 1 = the exact
	// serial path, negative BatchSize = full materialization between
	// operators. Results are bit-identical at every setting; only wall
	// times and peak memory change.
	Parallelism int
	BatchSize   int
	// PlanParallelism caps the OS threads Monsoon's root-parallel MCTS
	// planner runs its search shards on: 0 = runtime.GOMAXPROCS(0), 1 =
	// serial planning. The shard decomposition is fixed by the planner
	// config, so plans are bit-identical at every setting.
	PlanParallelism int
	// PlanCache, when set, shares one plan cache across every Monsoon run
	// of the campaign: repeated (query shape, statistics) planning states
	// replay memoized rounds instead of re-running MCTS. Plan choices are
	// unchanged for repeated identical runs; hit rates surface in the
	// campaign metrics (-metrics) as monsoon.plancache.hits/misses.
	PlanCache bool
	// Shards partitions every generated catalog into that many deterministic
	// hash shards (first-column layout), switching on the engine's
	// exchange-style operators for every run of the campaign: 0 or 1 keeps
	// the single unsharded store. Query answers are bit-identical at every
	// setting; only wall times and the exchange telemetry change.
	Shards int
}

// shardCat applies the campaign's shard layout to a freshly generated
// catalog; every experiment's catalog passes through here so -shards covers
// the whole harness uniformly.
func (sc Scale) shardCat(cat *table.Catalog) *table.Catalog {
	if sc.Shards > 1 {
		cat.Shard(sc.Shards)
	}
	return cat
}

// exec is the engine configuration every execution of the campaign runs with.
func (sc Scale) exec() engine.ExecConfig {
	return engine.ExecConfig{Parallelism: sc.Parallelism, BatchSize: sc.BatchSize}
}

// Specs generates one benchmark's data — tpch, imdb, ott or udf — from the
// scale's generator settings and seed, binds the benchmark's queries to it,
// and applies the scale's shard layout once per distinct catalog.
func Specs(bench string, sc Scale) ([]QuerySpec, error) {
	var specs []QuerySpec
	switch bench {
	case "tpch":
		cat := tpch.Generate(tpch.Config{ScaleFactor: sc.TPCHSF, Seed: sc.Seed})
		for _, q := range tpch.Queries() {
			specs = append(specs, QuerySpec{Q: q, Cat: cat})
		}
	case "imdb":
		cat := imdb.Generate(imdb.Config{Titles: sc.IMDBTitles, Bootstrap: sc.IMDBBootstrap, Seed: sc.Seed})
		for _, q := range imdb.Queries(sc.IMDBQueryCount, sc.Seed) {
			specs = append(specs, QuerySpec{Q: q, Cat: cat})
		}
	case "ott":
		cat := ott.Generate(ott.Config{ScaleFactor: sc.OTTSF, Seed: sc.Seed})
		for _, c := range ott.Queries() {
			specs = append(specs, QuerySpec{Q: c.Query, Cat: cat, Hand: c.Best})
		}
	case "udf":
		suite := udf.Generate(udf.Config{Titles: sc.UDFTitles, ScaleFactor: sc.UDFSF, Seed: sc.Seed})
		for _, qc := range suite.All() {
			specs = append(specs, QuerySpec{Q: qc.Query, Cat: qc.Cat})
		}
	default:
		return nil, fmt.Errorf("unknown benchmark %q", bench)
	}
	sharded := map[*table.Catalog]bool{}
	for _, s := range specs {
		if !sharded[s.Cat] {
			sc.shardCat(s.Cat)
			sharded[s.Cat] = true
		}
	}
	return specs, nil
}

// ScaleNamed returns the scale a -scale flag names: tiny, small or medium.
func ScaleNamed(name string) (Scale, error) {
	switch name {
	case "tiny":
		return Tiny(), nil
	case "small":
		return Small(), nil
	case "medium":
		return Medium(), nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q", name)
}

// Tiny is the scale unit tests and testing.B benchmarks use.
func Tiny() Scale {
	return Scale{
		Name: "tiny", TPCHSF: 0.001, OTTSF: 0.001,
		IMDBTitles: 150, IMDBBootstrap: 1, IMDBQueryCount: 8,
		UDFTitles: 150, UDFSF: 0.001,
		Timeout: 3 * time.Second, MaxTuples: 2e6,
		MCTSIterations: 150, Seed: 1,
	}
}

// Small is the default campaign scale for cmd/monsoon-bench.
func Small() Scale {
	return Scale{
		Name: "small", TPCHSF: 0.004, OTTSF: 0.002,
		IMDBTitles: 500, IMDBBootstrap: 3, IMDBQueryCount: 60,
		UDFTitles: 600, UDFSF: 0.003,
		Timeout: 8 * time.Second, MaxTuples: 2.5e7,
		MCTSIterations: 400, Seed: 1,
	}
}

// Medium trades wall time for larger data.
func Medium() Scale {
	return Scale{
		Name: "medium", TPCHSF: 0.02, OTTSF: 0.01,
		IMDBTitles: 2500, IMDBBootstrap: 5, IMDBQueryCount: 60,
		UDFTitles: 2500, UDFSF: 0.01,
		Timeout: 20 * time.Second, MaxTuples: 4e7,
		MCTSIterations: 800, Seed: 1,
	}
}

// Runner executes and caches the campaign so tables sharing a run (3/4/5/8)
// pay for it once.
type Runner struct {
	Scale    Scale
	Progress io.Writer
	// Metrics, when non-nil, accumulates counters and histograms from every
	// Monsoon run of the campaign (cmd/monsoon-bench dumps it on exit).
	Metrics *obs.Registry
	// Sink, when non-nil, receives the structured event stream of every
	// Monsoon run of the campaign. Sinks shared this way must lock
	// internally (obs.NewJSONL does).
	Sink obs.EventSink
	// Profile, when non-nil, prices every Monsoon run's MCTS simulations
	// with this calibrated per-operator cost profile (-calibration-file).
	Profile *cost.CostProfile
	// ReplanThreshold, when > 0, arms mid-query re-optimization on every
	// Monsoon run of the campaign (-replan-threshold).
	ReplanThreshold float64

	imdbRes *BenchResult
	ottRes  *BenchResult
	udfRes  *BenchResult
	cache   *plancache.Cache
}

func (r *Runner) monsoon() Monsoon {
	return Monsoon{Iterations: r.Scale.MCTSIterations, Metrics: r.Metrics, Sink: r.Sink,
		PlanParallelism: r.Scale.PlanParallelism,
		Cache:           r.planCache(),
		Profile:         r.Profile,
		ReplanThreshold: r.ReplanThreshold}
}

// planCache lazily creates the campaign-shared cache when the scale enables
// it; nil (caching off) otherwise.
func (r *Runner) planCache() *plancache.Cache {
	if !r.Scale.PlanCache {
		return nil
	}
	if r.cache == nil {
		r.cache = plancache.New(0)
	}
	return r.cache
}

// standardOptions is the Table 3/5 lineup.
func (r *Runner) standardOptions() []Option {
	return []Option{Postgres{}, Defaults{}, Greedy{}, r.monsoon(), OnDemand{}, Sampling{}, Skinner{}}
}

func (r *Runner) log(format string, args ...any) {
	if r.Progress != nil {
		fmt.Fprintf(r.Progress, format+"\n", args...)
	}
}

// Table1 reproduces Table 1 and the §2.3 expected-cost argument analytically
// from the implemented cost model — no execution involved.
func Table1(w io.Writer) {
	q := query.NewBuilder("sec23").
		Rel("R", "R").Rel("S", "S").Rel("T", "T").
		Join(expr.HashMod("R.a", 1000), expr.Identity("S.k")).
		Join(expr.HashMod("R.b", 1000), expr.Identity("T.k")).
		MustBuild()
	mk := func(d2, d4 float64) *stats.Store {
		st := stats.New()
		st.SetCount(stats.RawKey("R"), 1e6)
		st.SetCount(stats.RawKey("S"), 1e4)
		st.SetCount(stats.RawKey("T"), 1e4)
		st.SetMeasured(0, "R", 1000)
		st.SetMeasured(2, "R", 1000)
		st.SetMeasured(1, "S", d2)
		st.SetMeasured(3, "T", d4)
		return st
	}
	leaf := func(n string) *plan.Node { return plan.NewLeaf(query.NewAliasSet(n)) }
	fmt.Fprintln(w, "Table 1: enumerating attribute cardinalities (§2.3)")
	fmt.Fprintf(w, "%-10s %-10s %-22s %-12s\n", "d(F2,S)", "d(F4,T)", "Optimal Plan", "Int. Tuples")
	for _, c := range []struct{ d2, d4 float64 }{{1, 1}, {1, 10000}, {10000, 1}, {10000, 10000}} {
		dv := &cost.Deriver{Q: q, St: mk(c.d2, c.d4), Miss: cost.PanicMiss()}
		rs := dv.NodeCount(plan.NewJoin(leaf("R"), leaf("S")))
		rt := dv.NodeCount(plan.NewJoin(leaf("R"), leaf("T")))
		planName := "Both"
		best := rs
		switch {
		case rs < rt:
			planName = "((R⋈S)⋈T)"
		case rt < rs:
			planName, best = "((R⋈T)⋈S)", rt
		}
		fmt.Fprintf(w, "%-10.0f %-10.0f %-22s %-12.4g\n", c.d2, c.d4, planName, best)
	}
	fmt.Fprintln(w, "\nExpected costs (§2.3): guess-based plan = 0.5·10^7 + 0.5·10^6 = 5.5e6;")
	fmt.Fprintln(w, "scan-S-first plan = 10^4 + 0.25·10^7 + 0.75·10^6 = 3.26e6 — statistics win.")
}

// Figure2 emits the densities of the five smooth priors of §5.2 over
// normalized x = d/c(r), as CSV series.
func Figure2(w io.Writer) {
	priors := []prior.Prior{
		prior.Uniform{}, prior.Increasing{}, prior.Decreasing{},
		prior.UShaped{}, prior.LowBiased{},
	}
	fmt.Fprint(w, "x")
	for _, p := range priors {
		fmt.Fprintf(w, ",%s", p.Name())
	}
	fmt.Fprintln(w)
	for i := 1; i < 100; i++ {
		x := float64(i) / 100
		fmt.Fprintf(w, "%.2f", x)
		for _, p := range priors {
			fmt.Fprintf(w, ",%.4f", prior.Density(p, x))
		}
		fmt.Fprintln(w)
	}
}

// Table2 runs the TPC-H prior sweep: seven priors × four skew settings.
func (r *Runner) Table2(w io.Writer) error {
	sc := r.Scale
	datasets := []struct {
		label string
		cfg   tpch.Config
	}{
		{"TPC-H", tpch.Config{ScaleFactor: sc.TPCHSF, Seed: sc.Seed}},
		{"Low", tpch.Config{ScaleFactor: sc.TPCHSF, Skew: 1, Seed: sc.Seed}},
		{"High", tpch.Config{ScaleFactor: sc.TPCHSF, Skew: 4, Seed: sc.Seed}},
		{"Mixed", tpch.Config{ScaleFactor: sc.TPCHSF, MixedSkew: true, Seed: sc.Seed}},
	}
	queries := tpch.Queries()
	cells := map[string]map[string]string{}
	for _, p := range prior.All() {
		cells[p.Name()] = map[string]string{}
	}
	for _, ds := range datasets {
		r.log("Table 2: generating %s dataset...", ds.label)
		cat := sc.shardCat(tpch.Generate(ds.cfg))
		specs := make([]QuerySpec, len(queries))
		for i, q := range queries {
			specs[i] = QuerySpec{Q: q, Cat: cat}
		}
		for _, p := range prior.All() {
			// The runner's campaign knobs (shared cache, cost profile, replan
			// threshold) apply to every prior variant alike, so the sweep
			// compares priors, not configurations.
			opt := r.monsoon()
			opt.Prior = p
			br, err := RunBenchmark(specs, []Option{opt}, sc, nil)
			if err != nil {
				return err
			}
			agg := Aggregate(br.Results[opt.Name()], sc.Timeout)
			if agg.HasTO {
				cells[p.Name()][ds.label] = "N/A"
			} else {
				cells[p.Name()][ds.label] = fmtDur(agg.Mean)
			}
			r.log("  prior %-15s %-6s mean=%s", p.Name(), ds.label, cells[p.Name()][ds.label])
		}
	}
	fmt.Fprintln(w, "Table 2: average query time per prior on TPC-H (N/A = a query timed out)")
	fmt.Fprintf(w, "%-16s %-10s %-10s %-10s %-10s\n", "Prior", "TPC-H", "Low", "High", "Mixed")
	for _, p := range prior.All() {
		fmt.Fprintf(w, "%-16s %-10s %-10s %-10s %-10s\n", p.Name(),
			cells[p.Name()]["TPC-H"], cells[p.Name()]["Low"],
			cells[p.Name()]["High"], cells[p.Name()]["Mixed"])
	}
	return nil
}

// imdbBench runs the IMDB campaign once and caches it.
func (r *Runner) imdbBench() (*BenchResult, error) {
	if r.imdbRes != nil {
		return r.imdbRes, nil
	}
	sc := r.Scale
	r.log("IMDB: generating %d titles (bootstrap %dx)...", sc.IMDBTitles, sc.IMDBBootstrap)
	specs, err := Specs("imdb", sc)
	if err != nil {
		return nil, err
	}
	br, err := RunBenchmark(specs, r.standardOptions(), sc, r.Progress)
	if err != nil {
		return nil, err
	}
	r.imdbRes = br
	return br, nil
}

func printAggTable(w io.Writer, title string, names []string, br *BenchResult, filter map[string]bool) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-22s %-4s %-10s %-10s %-10s %-10s %-10s %-15s %-8s %-8s %-5s\n",
		"Implementation", "TO", "Mean", "Median", "P50", "P99", "Max", "GeoMean(tuples)", "Q-geo", "Q-max", "Miss")
	for _, n := range names {
		rs := br.Results[n]
		if filter != nil {
			rs = Filter(rs, filter)
		}
		a := Aggregate(rs, br.Timeout)
		mean, median, max := fmtAgg(a, br.Timeout)
		p50, p99 := timeQuantiles(rs, br.Timeout)
		qgeo, qmax, qmiss := qerrCols(rs)
		fmt.Fprintf(w, "%-22s %-4d %-10s %-10s %-10s %-10s %-10s %-15.4g %-8s %-8s %-5s\n",
			n, a.TO, mean, median, p50, p99, max, geoMeanProduced(rs), qgeo, qmax, qmiss)
	}
}

// timeQuantiles estimates the p50/p99 run wall time of one option's results
// through the obs log₂ histogram — the same estimator the live /metrics
// endpoint reports, so table and endpoint percentiles agree in kind. Timed-out
// runs contribute the timeout value, matching how Aggregate treats the median.
func timeQuantiles(rs []QueryResult, timeout time.Duration) (p50, p99 string) {
	if len(rs) == 0 {
		return "-", "-"
	}
	h := &obs.Histogram{}
	for _, r := range rs {
		h.ObserveDuration(effTime(r, timeout))
	}
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return "≤" + fmtDur(secs(h.Quantile(0.50))), "≤" + fmtDur(secs(h.Quantile(0.99)))
}

// Table3 prints the full IMDB aggregate.
func (r *Runner) Table3(w io.Writer) error {
	br, err := r.imdbBench()
	if err != nil {
		return err
	}
	printAggTable(w, "Table 3: IMDB Join Order Benchmark (synthetic proxy)", r.optionNames(), br, nil)
	return nil
}

// Table4 prints the relative-to-Postgres buckets.
func (r *Runner) Table4(w io.Writer) error {
	br, err := r.imdbBench()
	if err != nil {
		return err
	}
	base := br.Results["Postgres"]
	fmt.Fprintln(w, "Table 4: relative performance vs Postgres (full statistics) on IMDB")
	fmt.Fprintf(w, "%-22s %-8s %-10s %-8s\n", "Impl.", "<0.9", "[0.9,1.1)", ">1.1")
	for _, n := range r.optionNames() {
		if n == "Postgres" {
			continue
		}
		lo, mid, hi := RelativeBuckets(br.Results[n], base)
		fmt.Fprintf(w, "%-22s %-8.2f %-10.2f %-8.2f\n", n, lo, mid, hi)
	}
	return nil
}

// Table5 prints the aggregate over the 20 most expensive IMDB queries (by
// the Postgres baseline's time).
func (r *Runner) Table5(w io.Writer) error {
	br, err := r.imdbBench()
	if err != nil {
		return err
	}
	k := 20
	if r.Scale.IMDBQueryCount < 20 {
		k = r.Scale.IMDBQueryCount / 2
	}
	top := TopExpensive(br.Results["Postgres"], k)
	printAggTable(w, fmt.Sprintf("Table 5: the %d most expensive IMDB queries", k), r.optionNames(), br, top)
	return nil
}

func (r *Runner) optionNames() []string {
	var out []string
	for _, o := range r.standardOptions() {
		out = append(out, o.Name())
	}
	return out
}

// Table6 runs and prints the Optimizer Torture Tests.
func (r *Runner) Table6(w io.Writer) error {
	if r.ottRes == nil {
		sc := r.Scale
		r.log("OTT: generating (SF %.4g)...", sc.OTTSF)
		specs, err := Specs("ott", sc)
		if err != nil {
			return err
		}
		options := []Option{HandWritten{}, Postgres{}, Defaults{}, Greedy{}, r.monsoon(), OnDemand{}, Sampling{}}
		br, err := RunBenchmark(specs, options, sc, r.Progress)
		if err != nil {
			return err
		}
		r.ottRes = br
	}
	names := []string{"Hand-written", "Postgres", "Defaults", "Greedy", "Monsoon", "On Demand", "Sampling"}
	printAggTable(w, "Table 6: correlated Optimizer Torture Tests", names, r.ottRes, nil)
	return nil
}

// udfBench runs the UDF campaign once and caches it.
func (r *Runner) udfBench() (*BenchResult, error) {
	if r.udfRes != nil {
		return r.udfRes, nil
	}
	sc := r.Scale
	r.log("UDF: generating (titles %d, SF %.4g)...", sc.UDFTitles, sc.UDFSF)
	specs, err := Specs("udf", sc)
	if err != nil {
		return nil, err
	}
	options := []Option{Defaults{}, Greedy{}, r.monsoon(), Sampling{}, Skinner{}}
	br, err := RunBenchmark(specs, options, sc, r.Progress)
	if err != nil {
		return nil, err
	}
	r.udfRes = br
	return br, nil
}

// Table7 prints the UDF benchmark aggregate (On-Demand and the full-stats
// baseline are dropped: multi-table UDF statistics cannot be precollected).
func (r *Runner) Table7(w io.Writer) error {
	br, err := r.udfBench()
	if err != nil {
		return err
	}
	names := []string{"Defaults", "Greedy", "Monsoon", "Sampling", "SkinnerDB"}
	printAggTable(w, "Table 7: queries with UDFs", names, br, nil)
	return nil
}

// Figure3 prints per-query times of the four plan-producing options on the
// 25 UDF queries, sorted by Monsoon's time (CSV series, timeouts printed as
// the timeout value).
func (r *Runner) Figure3(w io.Writer) error {
	br, err := r.udfBench()
	if err != nil {
		return err
	}
	names := []string{"Monsoon", "Sampling", "Defaults", "Greedy"}
	monsoon := br.Results["Monsoon"]
	order := make([]string, len(monsoon))
	sorted := append([]QueryResult(nil), monsoon...)
	sort.Slice(sorted, func(i, j int) bool { return effTime(sorted[i], br.Timeout) < effTime(sorted[j], br.Timeout) })
	for i, qr := range sorted {
		order[i] = qr.Query
	}
	byName := map[string]map[string]QueryResult{}
	for _, n := range names {
		byName[n] = map[string]QueryResult{}
		for _, qr := range br.Results[n] {
			byName[n][qr.Query] = qr
		}
	}
	fmt.Fprint(w, "query")
	for _, n := range names {
		fmt.Fprintf(w, ",%s", n)
	}
	fmt.Fprintln(w)
	for _, qn := range order {
		fmt.Fprint(w, qn)
		for _, n := range names {
			fmt.Fprintf(w, ",%.3f", effTime(byName[n][qn], br.Timeout).Seconds())
		}
		fmt.Fprintln(w)
	}
	return nil
}

func effTime(qr QueryResult, timeout time.Duration) time.Duration {
	if qr.TimedOut && timeout > 0 {
		return timeout
	}
	return qr.Time
}

// Table8 prints Monsoon's component breakdown (average per query) on IMDB,
// the IMDB top-k subset, OTT, and UDF.
func (r *Runner) Table8(w io.Writer) error {
	imdbBR, err := r.imdbBench()
	if err != nil {
		return err
	}
	if err := r.Table6(io.Discard); err != nil { // ensures ottRes
		return err
	}
	udfBR, err := r.udfBench()
	if err != nil {
		return err
	}
	k := 20
	if r.Scale.IMDBQueryCount < 20 {
		k = r.Scale.IMDBQueryCount / 2
	}
	top := TopExpensive(imdbBR.Results["Postgres"], k)
	rows := []struct {
		label string
		rs    []QueryResult
	}{
		{"IMDB", imdbBR.Results["Monsoon"]},
		{fmt.Sprintf("IMDB-%d", k), Filter(imdbBR.Results["Monsoon"], top)},
		{"OTT", r.ottRes.Results["Monsoon"]},
		{"UDF", udfBR.Results["Monsoon"]},
	}
	fmt.Fprintln(w, "Table 8: average time per component of the Monsoon optimizer")
	fmt.Fprintf(w, "%-10s %-10s %-10s %-10s %-12s %-12s %-12s %-12s\n",
		"Benchmark", "MCTS", "Σ", "Execution", "plan-p50", "plan-p99", "exec-p50", "exec-p99")
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	for _, row := range rows {
		var mcts, sigma, exec time.Duration
		n := len(row.rs)
		if n == 0 {
			continue
		}
		planH, execH := &obs.Histogram{}, &obs.Histogram{}
		for _, qr := range row.rs {
			mcts += qr.MCTSTime
			sigma += qr.SigmaTime
			exec += qr.ExecTime
			planH.ObserveDuration(qr.MCTSTime)
			execH.ObserveDuration(qr.ExecTime)
		}
		fmt.Fprintf(w, "%-10s %-10s %-10s %-10s %-12s %-12s %-12s %-12s\n", row.label,
			fmtDur(mcts/time.Duration(n)), fmtDur(sigma/time.Duration(n)), fmtDur(exec/time.Duration(n)),
			"≤"+fmtDur(secs(planH.Quantile(0.50))), "≤"+fmtDur(secs(planH.Quantile(0.99))),
			"≤"+fmtDur(secs(execH.Quantile(0.50))), "≤"+fmtDur(secs(execH.Quantile(0.99))))
	}
	return nil
}

// PlanCacheStudy measures the cross-session plan cache on the IMDB campaign:
// a cache-off reference pass, a cold pass through a fresh shared cache, and a
// warm pass through the now-populated cache, all with identical per-query
// seeds. It reports each pass's total MCTS planning time and hit rate, the
// warm-over-cold plan-time speedup, and verifies the warm pass reproduced the
// reference results exactly (the cached≡uncached guarantee).
func (r *Runner) PlanCacheStudy(w io.Writer) error {
	sc := r.Scale
	r.log("PlanCacheStudy: generating IMDB (%d titles)...", sc.IMDBTitles)
	specs, err := Specs("imdb", sc)
	if err != nil {
		return err
	}
	cache := plancache.New(0)
	through := func(c *plancache.Cache) Monsoon {
		return Monsoon{Iterations: sc.MCTSIterations, PlanParallelism: sc.PlanParallelism,
			Cache: c, Metrics: r.Metrics, Sink: r.Sink}
	}
	passes := []struct {
		label string
		opt   Monsoon
	}{{"uncached", through(nil)}, {"cold", through(cache)}, {"warm", through(cache)}}
	fmt.Fprintln(w, "Plan cache study: repeated IMDB campaign through one shared cache")
	fmt.Fprintf(w, "%-10s %-12s %-12s %-8s %-8s %-8s\n", "Pass", "MCTS", "Total", "Hits", "Misses", "HitRate")
	results := make([]*BenchResult, len(passes))
	planTimes := make([]time.Duration, len(passes))
	for i, p := range passes {
		br, err := RunBenchmark(specs, []Option{p.opt}, sc, r.Progress)
		if err != nil {
			return err
		}
		results[i] = br
		var mcts, total time.Duration
		hits, misses := 0, 0
		for _, qr := range br.Results[p.opt.Name()] {
			mcts += qr.MCTSTime
			total += qr.Time
			hits += qr.CacheHits
			misses += qr.CacheMisses
		}
		planTimes[i] = mcts
		rate := "-"
		if hits+misses > 0 {
			rate = fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
		}
		fmt.Fprintf(w, "%-10s %-12s %-12s %-8d %-8d %-8s\n", p.label, fmtDur(mcts), fmtDur(total), hits, misses, rate)
	}
	// The cached≡uncached guarantee: the warm pass must reproduce the
	// reference pass's results (same rows, aggregates, and objects produced
	// per query); any divergence on a query both passes completed is a
	// cache-soundness bug worth failing on. Queries where either pass timed
	// out are reported but exempt from the strict comparison — see
	// resultDivergence.
	ref := results[0].Results[passes[0].opt.Name()]
	warm := results[2].Results[passes[2].opt.Name()]
	truncated, err := resultDivergence(ref, warm, "warm")
	if err != nil {
		return err
	}
	if planTimes[2] > 0 {
		fmt.Fprintf(w, "warm-over-cold plan-time speedup: %.1fx; warm pass reproduced the uncached results exactly\n",
			float64(planTimes[1])/float64(planTimes[2]))
	}
	if truncated > 0 {
		fmt.Fprintf(w, "%d of %d queries timed out in at least one pass (deadline-truncated, exempt from the comparison)\n",
			truncated, len(ref))
	}
	fmt.Fprintf(w, "cache: %d entries, %d evictions\n", cache.Stats().Entries, cache.Stats().Evictions)
	return nil
}

// resultDivergence compares two passes over the same query list that are
// supposed to be execution-equivalent (uncached vs warm-cached, streaming vs
// materialized) and returns an error naming the first query whose rows,
// aggregate value, or objects produced differ. Queries where either pass
// timed out are exempt and counted in truncated instead: a deadline-stopped
// run's accounting measures how far the wall clock let it get, not which
// plans it picked — e.g. a warm cache pass skips MCTS almost entirely, so
// within the same deadline it executes more rounds than the uncached
// reference and legitimately reports a larger Produced for a query neither
// pass finished. Comparing those numbers is comparing clock noise.
func resultDivergence(ref, other []QueryResult, label string) (truncated int, err error) {
	if len(ref) != len(other) {
		return 0, fmt.Errorf("result divergence: %d reference queries vs %d %s", len(ref), len(other), label)
	}
	for i := range ref {
		if ref[i].TimedOut || other[i].TimedOut {
			truncated++
			continue
		}
		if other[i].Rows != ref[i].Rows || other[i].Value != ref[i].Value || other[i].Produced != ref[i].Produced {
			return truncated, fmt.Errorf("%s pass diverged on %s: rows/value/produced %d/%g/%g vs %d/%g/%g",
				label, ref[i].Query, other[i].Rows, other[i].Value, other[i].Produced,
				ref[i].Rows, ref[i].Value, ref[i].Produced)
		}
	}
	return truncated, nil
}

// MemoryStudy contrasts streaming batch execution against full
// materialization where the contrast is actually measurable: deterministic
// greedy left-deep plans over TPC-H at 50× the campaign scale factor, plus a
// synthetic fan-out join whose intermediate dwarfs its inputs. Left-deep
// trees put every intermediate on the probe (streamed) side, so the
// materialized engine retains whole intermediates between operators while
// the streaming engine holds one batch at a time; hash-join builds — always
// the right child, a base table here — cost the same in both modes. The
// study drives the engine directly rather than through Monsoon: MCTS
// allocations and wall-clock deadline truncation both add nondeterministic
// noise of the same magnitude as the effect under measurement (the only
// budget that can truncate here is the deterministic tuple cap, so the two
// modes always do identical work).
//
// Peak-MB is the peak heap (runtime.MemStats.HeapAlloc) the engine's
// sampler observed while the tree drained — batch boundaries plus a 2ms
// background ticker, surfaced as monsoon.exec.peak_bytes. GOGC is pinned to
// 20 for the duration of the study (restored on return): at the default 100
// the collector lets the heap double between cycles, and that slack —
// hundreds of MB at this scale — swamps the live-set difference being
// measured. The two modes must produce identical results — the
// streaming≡materialized guarantee — validated with the same
// truncation-aware comparison the plan cache study uses.
func (r *Runner) MemoryStudy(w io.Writer) error {
	sc := r.Scale
	prevGC := debug.SetGCPercent(20)
	defer debug.SetGCPercent(prevGC)

	sf := sc.TPCHSF * 50
	r.log("MemoryStudy: generating TPC-H (SF %.4g)...", sf)
	cat := sc.shardCat(tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: sc.Seed}))
	type job struct {
		name string
		cat  *table.Catalog
		q    *query.Query
		tree *plan.Node
	}
	var jobs []job
	for _, q := range tpch.Queries() {
		st := stats.New()
		engine.New(cat).SeedBaseStats(q, st)
		tree, err := opt.GreedyPlan(q, st)
		if err != nil {
			return fmt.Errorf("memory study: greedy plan for %s: %w", q.Name, err)
		}
		jobs = append(jobs, job{q.Name, cat, q, tree})
	}

	// GC pacing adds run-to-run noise on top of the true live-set peak —
	// slack only ever inflates the observation — so each (query, mode) pair
	// runs three times and reports the minimum, the tightest estimate of
	// what the mode actually needs resident.
	const reps = 3
	fmt.Fprintf(w, "Memory study: peak engine heap, streaming (batch 4096) vs full materialization\n")
	fmt.Fprintf(w, "TPC-H at 50x campaign scale (SF %.4g) + fan-out join; greedy left-deep plans, serial, GOGC=20, min of %d runs\n", sf, reps)
	fmt.Fprintf(w, "%-10s %-42s %-9s %-11s %-9s %-8s\n", "Query", "Plan", "Rows", "Stream-MB", "Mat-MB", "Δ")
	const mb = 1 << 20
	modes := []int{4096, -1} // streaming first, materialized second
	byMode := make([][]QueryResult, len(modes))
	var maxMB, sumMB [2]float64
	nJobs := len(jobs) + 1
	runJob := func(j job) error {
		var peaks [2]float64
		var rows [2]string
		for mi, batch := range modes {
			for rep := 0; rep < reps; rep++ {
				// A fresh collection before each run keeps one run's garbage
				// from inflating the next one's observed peak.
				runtime.GC()
				start := time.Now()
				ex := engine.New(j.cat).NewExec(engine.ExecConfig{Parallelism: 1, BatchSize: batch, Metrics: obs.NewRegistry()})
				b := &engine.Budget{MaxTuples: 4 * sc.MaxTuples, Deadline: start.Add(10 * sc.Timeout)}
				rel, res, err := ex.ExecTree(j.q, j.tree, b)
				out := Outcome{PeakBytes: res.PeakBytes}
				if err == nil {
					out.Rows = rel.Count()
					out.Value, err = engine.FinalAggregate(j.q, rel)
				}
				out = finish(start, b, err, out)
				if out.Err != nil {
					return fmt.Errorf("memory study: %s batch %d: %w", j.name, batch, out.Err)
				}
				if rep == 0 {
					byMode[mi] = append(byMode[mi], QueryResult{Query: j.name, Outcome: out})
					peaks[mi] = out.PeakBytes / mb
					rows[mi] = fmt.Sprintf("%d", out.Rows)
					if out.TimedOut {
						rows[mi] = "TO"
					}
				} else if p := out.PeakBytes / mb; p < peaks[mi] {
					peaks[mi] = p
				}
			}
			sumMB[mi] += peaks[mi]
			if peaks[mi] > maxMB[mi] {
				maxMB[mi] = peaks[mi]
			}
		}
		delta := 100 * (peaks[0] - peaks[1]) / peaks[1]
		fmt.Fprintf(w, "%-10s %-42s %-9s %-11.1f %-9.1f %+.1f%%\n",
			j.name, j.tree, rows[0], peaks[0], peaks[1], delta)
		return nil
	}
	for _, j := range jobs {
		if err := runJob(j); err != nil {
			return err
		}
	}
	// The fan-out fixture runs last, built only after the TPC-H catalog is
	// released: anything held live during a run inflates the GC pacer's
	// allowance for it and smears the per-query peaks.
	jobs, cat = nil, nil
	runtime.GC()
	fq, fcat, ftree := fanoutFixture(sf)
	if err := runJob(job{fq.Name, fcat, fq, ftree}); err != nil {
		return err
	}
	n := float64(nJobs)
	fmt.Fprintf(w, "%-10s %-42s %-9s %-11.1f %-9.1f %+.1f%%\n",
		"max", "", "", maxMB[0], maxMB[1], 100*(maxMB[0]-maxMB[1])/maxMB[1])
	fmt.Fprintf(w, "%-10s %-42s %-9s %-11.1f %-9.1f %+.1f%%\n",
		"mean", "", "", sumMB[0]/n, sumMB[1]/n, 100*(sumMB[0]-sumMB[1])/(sumMB[1]))
	truncated, err := resultDivergence(byMode[1], byMode[0], "streaming")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "streaming reproduced the materialized results exactly")
	if truncated > 0 {
		fmt.Fprintf(w, " (%d of %d queries tuple-budget-truncated, exempt)", truncated, nJobs)
	}
	fmt.Fprintln(w)
	return nil
}

// fanoutFixture builds the memory study's adversarial workload: a fan-out
// equijoin whose intermediate (10 rows per key on both sides → 10n rows)
// dwarfs its inputs, followed by a 1%-selective probe into a 10-row table.
// The left-deep tree streams that intermediate straight into the second
// join's probe, so the streaming engine holds one batch of it while the
// materialized engine retains all 10n rows — the OTT blow-up shape reduced
// to its essentials. Sized off the TPC-H study scale factor so every
// campaign scale stays proportionate.
func fanoutFixture(sf float64) (*query.Query, *table.Catalog, *plan.Node) {
	n := int(2.5e6 * sf)
	if n < 1000 {
		n = 1000
	}
	keys := n / 10
	cat := table.NewCatalog()
	bs := table.NewSchema(
		table.Column{Table: "BIG", Name: "a", Kind: value.KindInt},
		table.Column{Table: "BIG", Name: "b", Kind: value.KindInt},
	)
	bb := table.NewBuilder("BIG", bs)
	for i := 0; i < n; i++ {
		bb.Add(value.Int(int64(i%keys)), value.Int(int64(i%1000)))
	}
	cat.Put(bb.Build())
	fs := table.NewSchema(table.Column{Table: "FAN", Name: "k", Kind: value.KindInt})
	fb := table.NewBuilder("FAN", fs)
	for i := 0; i < n; i++ {
		fb.Add(value.Int(int64(i % keys)))
	}
	cat.Put(fb.Build())
	ts := table.NewSchema(table.Column{Table: "TT", Name: "t", Kind: value.KindInt})
	tb := table.NewBuilder("TT", ts)
	for i := 0; i < 10; i++ {
		tb.Add(value.Int(int64(i)))
	}
	cat.Put(tb.Build())
	q := query.NewBuilder("fanout").
		Rel("big", "BIG").Rel("fan", "FAN").Rel("tt", "TT").
		Join(expr.Identity("big.a"), expr.Identity("fan.k")).
		Join(expr.Identity("big.b"), expr.Identity("tt.t")).
		MustBuild()
	tree := plan.NewJoin(
		plan.NewJoin(plan.NewLeaf(query.NewAliasSet("big")), plan.NewLeaf(query.NewAliasSet("fan"))),
		plan.NewLeaf(query.NewAliasSet("tt")))
	return q, cat, tree
}
