package harness

import (
	"testing"
	"time"

	"monsoon/internal/core"
	"monsoon/internal/plancache"
)

// TestCampaignDeterminism: the whole pipeline — generation, every optimizer
// (including Monsoon's MCTS and Skinner's episodes), execution — is seeded,
// so two identical campaigns must produce identical tuple costs, result
// cardinalities, and timeout decisions driven by the tuple cap. (Wall-clock
// fields differ; a deadline-driven timeout could too, so the test uses a
// tuple cap only.)
func TestCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func() *BenchResult {
		specs := tinySpecs(t)
		options := []Option{
			Postgres{}, Defaults{}, Greedy{}, Monsoon{Config: core.Config{Iterations: 120}},
			OnDemand{}, Sampling{}, Skinner{}, LEC{},
		}
		br, err := RunBenchmark(specs, options, Scale{Timeout: time.Minute, MaxTuples: 2e6, Seed: 77}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return br
	}
	a, b := run(), run()
	for name, ra := range a.Results {
		rb := b.Results[name]
		if len(ra) != len(rb) {
			t.Fatalf("%s: different result counts", name)
		}
		for i := range ra {
			if ra[i].Produced != rb[i].Produced {
				t.Errorf("%s/%s: produced %v vs %v", name, ra[i].Query, ra[i].Produced, rb[i].Produced)
			}
			if ra[i].Rows != rb[i].Rows {
				t.Errorf("%s/%s: rows %d vs %d", name, ra[i].Query, ra[i].Rows, rb[i].Rows)
			}
			if ra[i].TimedOut != rb[i].TimedOut {
				t.Errorf("%s/%s: timeout decisions differ", name, ra[i].Query)
			}
		}
	}
}

// TestCampaignCachedVsUncached: a campaign planned through a shared plan
// cache makes exactly the plan choices the cache-off campaign makes — same
// tuple costs, cardinalities, aggregates, and timeout decisions per query —
// on both the cold pass (cache filling, all misses) and the warm pass
// (taking memoized picks). It runs over three TPC-H queries and over the
// tiny scale's IMDB suite trimmed to four queries. CI runs this as the
// cached-vs-uncached determinism gate.
func TestCampaignCachedVsUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Tiny()
	sc.IMDBQueryCount = 4
	imdb, err := Specs("imdb", sc)
	if err != nil {
		t.Fatal(err)
	}
	suites := []struct {
		name  string
		specs []QuerySpec
	}{{"tpch", tinySpecs(t)}, {"imdb", imdb}}
	for _, suite := range suites {
		run := func(c *plancache.Cache) []QueryResult {
			opt := Monsoon{Config: core.Config{Iterations: 120, Cache: c}}
			br, err := RunBenchmark(suite.specs, []Option{opt}, Scale{Timeout: time.Minute, MaxTuples: 2e6, Seed: 77}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return br.Results[opt.Name()]
		}
		ref := run(nil)
		cache := plancache.New(0)
		for _, label := range []string{"cold", "warm"} {
			got := run(cache)
			for i := range ref {
				if got[i].Produced != ref[i].Produced || got[i].Rows != ref[i].Rows ||
					got[i].Value != ref[i].Value || got[i].TimedOut != ref[i].TimedOut {
					t.Errorf("%s %s/%s: produced/rows/value/timeout %v/%d/%v/%v, want %v/%d/%v/%v",
						suite.name, label, ref[i].Query, got[i].Produced, got[i].Rows, got[i].Value, got[i].TimedOut,
						ref[i].Produced, ref[i].Rows, ref[i].Value, ref[i].TimedOut)
				}
			}
		}
		if cache.Stats().Hits == 0 {
			t.Errorf("%s: warm campaign pass never hit the cache", suite.name)
		}
	}
}
