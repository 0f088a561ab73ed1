package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"monsoon/internal/bench/tpch"
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

func TestRunBenchmarkAllOptions(t *testing.T) {
	specs := tinySpecs(t)
	options := []Option{
		Postgres{}, Defaults{}, Greedy{}, OnDemand{}, Sampling{},
		Monsoon{Iterations: 100}, Skinner{},
	}
	br, err := RunBenchmark(specs, options, Scale{Timeout: 5 * time.Second, MaxTuples: 5e6, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All options must agree on every query's result cardinality (none
	// should time out at this scale).
	for _, spec := range specs {
		want := -1
		for _, o := range options {
			var got *QueryResult
			for i := range br.Results[o.Name()] {
				if br.Results[o.Name()][i].Query == spec.Q.Name {
					got = &br.Results[o.Name()][i]
				}
			}
			if got == nil {
				t.Fatalf("missing result for %s/%s", o.Name(), spec.Q.Name)
			}
			if got.TimedOut {
				t.Errorf("%s timed out on %s at tiny scale", o.Name(), spec.Q.Name)
				continue
			}
			if want == -1 {
				want = got.Rows
			} else if got.Rows != want {
				t.Errorf("%s on %s: rows %d, others got %d", o.Name(), spec.Q.Name, got.Rows, want)
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
