package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"monsoon/internal/bench/tpch"
	"monsoon/internal/core"
)

func tinySpecs(t *testing.T) []QuerySpec {
	t.Helper()
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: 1})
	qs := tpch.Queries()
	// Three small queries keep the test quick.
	return []QuerySpec{
		{Q: qs[1], Cat: cat}, // q3
		{Q: qs[7], Cat: cat}, // q11
		{Q: qs[8], Cat: cat}, // q18
	}
}

// TestRunBenchmarkAllOptions: every optimizer answers every query of all four
// suites at tiny scale (IMDB trimmed to four queries),
// and they all agree with the full-statistics baseline — on the result's row
// count exactly and on its aggregate within a relative 1e-9, the room a SUM
// leaves for the order in which different plans add the same rows. The one
// exception is the torture suite, built so that a plan blind to its
// correlations blows up: there an option may run into the tuple budget —
// Table 6's TO, which at 5e5 tuples it reaches long before it could exhaust
// the machine's memory — and is then not compared.
func TestRunBenchmarkAllOptions(t *testing.T) {
	sc := Tiny()
	sc.IMDBQueryCount = 4
	sc.Timeout, sc.MaxTuples = 5*time.Second, 5e5
	for _, bench := range []string{"tpch", "imdb", "ott", "udf"} {
		specs, err := Specs(bench, sc)
		if err != nil {
			t.Fatal(err)
		}
		options := []Option{
			Postgres{}, Defaults{}, Greedy{}, OnDemand{}, Sampling{},
			Monsoon{Config: core.Config{Iterations: 100}}, Skinner{},
		}
		if bench == "ott" {
			options = append(options, HandWritten{})
		}
		br, err := RunBenchmark(specs, options, sc, nil)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		ref := options[0].Name()
		for qi, spec := range specs {
			want := br.Results[ref][qi]
			if want.Query != spec.Q.Name || want.TimedOut {
				t.Fatalf("%s: %s's result %d is for %s, timed out %v; want a finished %s", bench, ref, qi, want.Query, want.TimedOut, spec.Q.Name)
			}
			for _, o := range options[1:] {
				got := br.Results[o.Name()][qi]
				switch {
				case got.Query != spec.Q.Name:
					t.Fatalf("%s: %s's result %d is for %s, want %s", bench, o.Name(), qi, got.Query, spec.Q.Name)
				case got.TimedOut && bench == "ott":
					t.Logf("%s ran into the budget on %s", o.Name(), spec.Q.Name)
				case got.TimedOut:
					t.Errorf("%s timed out on %s at tiny scale", o.Name(), spec.Q.Name)
				case got.Rows != want.Rows:
					t.Errorf("%s on %s: %d rows, %s got %d", o.Name(), spec.Q.Name, got.Rows, ref, want.Rows)
				case math.Abs(got.Value-want.Value) > 1e-9*math.Max(math.Abs(want.Value), 1):
					t.Errorf("%s on %s: aggregate %v, %s got %v", o.Name(), spec.Q.Name, got.Value, ref, want.Value)
				}
			}
		}
	}
}

func TestAggregate(t *testing.T) {
	mk := func(secs float64, to bool) QueryResult {
		return QueryResult{Outcome: Outcome{Time: time.Duration(secs * float64(time.Second)), TimedOut: to}}
	}
	a := Aggregate([]QueryResult{mk(1, false), mk(3, false), mk(2, false)}, 10*time.Second)
	if a.TO != 0 || a.Mean != 2*time.Second || a.Median != 2*time.Second || a.Max != 3*time.Second {
		t.Errorf("aggregate wrong: %+v", a)
	}
	// A timeout invalidates the mean and enters the median at the timeout.
	a = Aggregate([]QueryResult{mk(1, false), mk(0.5, true), mk(2, false)}, 10*time.Second)
	if a.TO != 1 || !a.HasTO {
		t.Errorf("TO miscounted: %+v", a)
	}
	if a.Median != 2*time.Second {
		t.Errorf("median with TO = %v", a.Median)
	}
	if a.Max != 10*time.Second {
		t.Errorf("max with TO = %v", a.Max)
	}
	// Even count → average of middle two.
	a = Aggregate([]QueryResult{mk(1, false), mk(2, false), mk(3, false), mk(4, false)}, 0)
	if a.Median != 2500*time.Millisecond {
		t.Errorf("even median = %v", a.Median)
	}
}

func TestRelativeBuckets(t *testing.T) {
	base := []QueryResult{
		{Query: "a", Outcome: Outcome{Time: time.Second}},
		{Query: "b", Outcome: Outcome{Time: time.Second}},
		{Query: "c", Outcome: Outcome{Time: time.Second}},
		{Query: "d", Outcome: Outcome{Time: time.Second}},
	}
	rs := []QueryResult{
		{Query: "a", Outcome: Outcome{Time: 500 * time.Millisecond}}, // <0.9
		{Query: "b", Outcome: Outcome{Time: time.Second}},            // within
		{Query: "c", Outcome: Outcome{Time: 2 * time.Second}},        // >1.1
		{Query: "d", Outcome: Outcome{TimedOut: true}},               // >1.1
	}
	lo, mid, hi := RelativeBuckets(rs, base)
	if lo != 25 || mid != 25 || hi != 50 {
		t.Errorf("buckets = %v/%v/%v", lo, mid, hi)
	}
	if l, m, h := RelativeBuckets(nil, nil); l+m+h != 0 {
		t.Error("empty buckets should be zero")
	}
}

func TestTopExpensiveAndFilter(t *testing.T) {
	rs := []QueryResult{
		{Query: "a", Outcome: Outcome{Time: 3 * time.Second}},
		{Query: "b", Outcome: Outcome{Time: time.Second}},
		{Query: "c", Outcome: Outcome{Time: 2 * time.Second}},
	}
	top := TopExpensive(rs, 2)
	if !top["a"] || !top["c"] || top["b"] {
		t.Errorf("top = %v", top)
	}
	kept := Filter(rs, top)
	if len(kept) != 2 {
		t.Errorf("filter kept %d", len(kept))
	}
	if len(TopExpensive(rs, 99)) != 3 {
		t.Error("k > len should keep all")
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"((R⋈T)⋈S)", "((R⋈S)⋈T)", "Both", "1e+07", "1e+06"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure2Output(t *testing.T) {
	var buf bytes.Buffer
	Figure2(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 100 {
		t.Fatalf("Figure 2 has %d lines, want 100", len(lines))
	}
	if !strings.HasPrefix(lines[0], "x,Uniform,Increasing,Decreasing,U-Shaped,Low Biased") {
		t.Errorf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if len(strings.Split(l, ",")) != 6 {
			t.Fatalf("bad row %q", l)
		}
	}
}

func TestScalesAreOrdered(t *testing.T) {
	tiny, small, medium := Tiny(), Small(), Medium()
	if !(tiny.TPCHSF < small.TPCHSF && small.TPCHSF < medium.TPCHSF) {
		t.Error("TPCH scale factors not increasing")
	}
	if !(tiny.Timeout <= small.Timeout && small.Timeout <= medium.Timeout) {
		t.Error("timeouts not increasing")
	}
	for _, sc := range []Scale{tiny, small, medium} {
		if sc.MCTSIterations <= 0 || sc.MaxTuples <= 0 || sc.IMDBQueryCount <= 0 {
			t.Errorf("scale %s has zero knobs", sc.Name)
		}
	}
}

// TestExperimentsEndToEnd drives every table through a micro campaign. It is
// the integration test for the whole repository: generators → optimizers →
// engine → aggregation → formatting.
func TestExperimentsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Tiny()
	sc.IMDBQueryCount = 4
	sc.MCTSIterations = 80
	sc.Timeout = 2 * time.Second
	r := &Runner{Scale: sc}
	var buf bytes.Buffer
	if err := r.Table3(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Table4(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Table5(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Table6(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Table7(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Figure3(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Table8(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 3", "Table 4", "Table 5", "Table 6", "Table 7", "Table 8",
		"Monsoon", "SkinnerDB", "Hand-written"} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign output missing %q", want)
		}
	}
}
