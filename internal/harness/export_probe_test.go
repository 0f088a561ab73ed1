package harness

import (
	"fmt"
	"os"
	"sort"
	"testing"

	"monsoon/internal/bench/imdb"
)

// TestIMDBResultSizes (diagnostic) measures true per-query costs under the
// full-statistics plan with no budget, to calibrate the scale knobs.
func TestIMDBResultSizes(t *testing.T) {
	if os.Getenv("MONSOON_PROBE") == "" {
		t.Skip("diagnostic probe; set MONSOON_PROBE=1 to run")
	}
	sc := Small()
	cat := imdb.Generate(imdb.Config{Titles: sc.IMDBTitles, Bootstrap: sc.IMDBBootstrap, Seed: sc.Seed})
	var produced []float64
	for _, q := range imdb.Queries(sc.IMDBQueryCount, sc.Seed) {
		out := (Postgres{}).Run(QuerySpec{Q: q, Cat: cat}, 0, 3e7, 1, nil)
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if out.TimedOut {
			fmt.Printf("  %s exceeded 3e7 tuples\n", q.Name)
		}
		produced = append(produced, out.Produced)
	}
	sort.Float64s(produced)
	n := len(produced)
	fmt.Printf("produced quantiles: p50=%.3g p75=%.3g p90=%.3g p95=%.3g max=%.3g\n",
		produced[n/2], produced[n*3/4], produced[n*9/10], produced[n*19/20], produced[n-1])
}
