package harness

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"monsoon/internal/bench/tpch"
	"monsoon/internal/core"
	"monsoon/internal/mcts"
	"monsoon/internal/obs"
	"monsoon/internal/plancache"
)

func TestLECOptionRuns(t *testing.T) {
	specs := tinySpecs(t)
	br, err := RunBenchmark(specs, []Option{LEC{}, Defaults{}}, Scale{Timeout: 5 * time.Second, MaxTuples: 5e6, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lec, def := br.Results["LEC"], br.Results["Defaults"]
	if len(lec) != len(specs) {
		t.Fatalf("LEC ran %d queries", len(lec))
	}
	for i := range lec {
		if lec[i].TimedOut || def[i].TimedOut {
			continue
		}
		if lec[i].Rows != def[i].Rows {
			t.Errorf("%s: LEC rows %d != Defaults rows %d", lec[i].Query, lec[i].Rows, def[i].Rows)
		}
	}
}

func TestMonsoonVariantKnobs(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: 1})
	spec := QuerySpec{Q: tpch.Queries()[7], Cat: cat} // q11: 3 tables
	for _, v := range []Monsoon{
		{Label: "uct", Config: core.Config{Iterations: 60}},
		{Label: "eps", Config: core.Config{Strategy: mcts.EpsGreedy, Iterations: 60}},
		{Label: "uniform", Config: core.Config{UniformRollout: true, Iterations: 60}},
	} {
		out := v.Run(spec, 5*time.Second, 5e6, 3, nil)
		if out.Err != nil {
			t.Fatalf("%s: %v", v.Label, out.Err)
		}
		if out.TimedOut {
			t.Errorf("%s timed out at tiny scale", v.Label)
		}
		if v.Name() != v.Label {
			t.Errorf("Name() = %q", v.Name())
		}
	}
}

func TestAblationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Tiny()
	sc.UDFTitles = 100
	sc.UDFSF = 0.001
	sc.MCTSIterations = 60
	sc.Timeout = 2 * time.Second
	r := &Runner{Scale: sc}
	var buf bytes.Buffer
	if err := r.Ablation(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Ablation", "Monsoon (UCT+greedy)", "Monsoon (ε-greedy)",
		"Monsoon (uniform rollout)", "LEC", "Defaults"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

// TestAblationVariantsTakeCampaignConfig pins that the ablation's three
// Monsoon variants start from the runner's Config like every other Monsoon
// run of the campaign: a collector sink receives one query span per variant
// and query, in variant order, and the shared plan cache is consulted.
func TestAblationVariantsTakeCampaignConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Tiny()
	sc.UDFTitles = 100
	sc.UDFSF = 0.001
	sc.MCTSIterations = 60
	sc.Timeout = 2 * time.Second
	col := &obs.Collector{}
	cache := plancache.New(0)
	r := &Runner{Scale: sc, Config: core.Config{Sink: col, Cache: cache}}
	if err := r.Ablation(io.Discard); err != nil {
		t.Fatal(err)
	}
	specs, err := Specs("udf", sc)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for range 3 { // UCT+greedy, ε-greedy, uniform rollout
		for _, s := range specs {
			want = append(want, s.Q.Name)
		}
	}
	for _, sp := range col.SpansOf(obs.KQuery) {
		got = append(got, sp.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("query spans %v, want the UDF suite once per Monsoon variant %v", got, want)
	}
	if st := cache.Stats(); st.Hits+st.Misses == 0 {
		t.Error("the ablation's Monsoon runs never consulted the campaign's plan cache")
	}
}

func TestFigure1Walk(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure1(&buf, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"EXECUTE", "terminal", "reference (measured)"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 1 output missing %q:\n%s", want, out)
		}
	}
	// Parse "… Σ operators, P objects produced (vs B bold-bad / G oracle)"
	// and require the walk to land well below the bold-bad plan's cost.
	i := strings.LastIndex(out, "Σ operators, ")
	if i < 0 {
		t.Fatal("summary line missing")
	}
	var produced, bad, oracle float64
	if _, err := fmt.Sscanf(out[i+len("Σ operators, "):],
		"%f objects produced (vs %f bold-bad / %f oracle)", &produced, &bad, &oracle); err != nil {
		t.Fatalf("cannot parse summary: %v", err)
	}
	// The final result dominates both plans' cost here, so the meaningful
	// check is closeness to the oracle: the walk (including any Σ probes)
	// must land within 15% of the oracle and strictly below the bad plan.
	if produced > oracle*1.15 || produced >= bad {
		t.Errorf("walk cost %v not near oracle %v (bad plan %v)", produced, oracle, bad)
	}
}
