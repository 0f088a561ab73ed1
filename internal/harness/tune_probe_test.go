package harness

import (
	"fmt"
	"os"
	"testing"

	"monsoon/internal/bench/imdb"
)

// TestTuneIMDBProbe is a diagnostic (run explicitly with -run TuneIMDB
// -tags): it reports how the full-statistics baseline fares on the small
// IMDB campaign so the scale knobs can be sanity-checked.
func TestTuneIMDBProbe(t *testing.T) {
	if os.Getenv("MONSOON_PROBE") == "" {
		t.Skip("diagnostic probe; set MONSOON_PROBE=1 to run")
	}
	sc := Small()
	cat := imdb.Generate(imdb.Config{Titles: sc.IMDBTitles, Bootstrap: sc.IMDBBootstrap, Seed: sc.Seed})
	to := 0
	var worst float64
	for _, q := range imdb.Queries(sc.IMDBQueryCount, sc.Seed) {
		out := (Postgres{}).Run(QuerySpec{Q: q, Cat: cat}, sc.Timeout, sc.MaxTuples, 1)
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if out.TimedOut {
			to++
		}
		if out.Produced > worst {
			worst = out.Produced
		}
	}
	fmt.Printf("Postgres on small IMDB: TO=%d/%d worstProduced=%.3g\n", to, sc.IMDBQueryCount, worst)
	if to > 2 {
		t.Errorf("full-statistics baseline should rarely time out; got %d", to)
	}
}
