package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"monsoon/internal/bench/imdb"
	"monsoon/internal/bench/ott"
	"monsoon/internal/bench/tpch"
	"monsoon/internal/bench/udf"
	"monsoon/internal/core"
	"monsoon/internal/cost"
	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/stats"
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
}

// Apply returns cfg with the scale's MCTS iteration budget and seed copied in.
func (sc Scale) Apply(cfg core.Config) core.Config {
	cfg.Iterations, cfg.Seed = sc.MCTSIterations, sc.Seed
	return cfg
}

// Specs generates one benchmark's data — tpch, imdb, ott or udf — from the
// scale's generator settings and seed, and binds the benchmark's queries to
// it.
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
	// Config is what every Monsoon run of the campaign starts from, with the
	// scale applied over it (Scale.Apply): its Sink, Metrics, Cache and
	// Profile are monsoon-bench's -trace-json, -metrics/-obs-addr, -plan-cache
	// and -calibration-file (Flags.Config). A shared Sink must lock internally (obs.NewJSONL does). A shared Cache is
	// safe across priors and ablation variants: its key carries both.
	Config core.Config

	imdbRes *BenchResult
	ottRes  *BenchResult
	udfRes  *BenchResult
}

func (r *Runner) monsoon() Monsoon {
	return Monsoon{Config: r.Scale.Apply(r.Config)}
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
		cat := tpch.Generate(ds.cfg)
		specs := make([]QuerySpec, len(queries))
		for i, q := range queries {
			specs[i] = QuerySpec{Q: q, Cat: cat}
		}
		for _, p := range prior.All() {
			// The runner's campaign knobs (shared cache, cost profile) apply
			// to every prior variant alike, so the sweep compares priors, not
			// configurations.
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
