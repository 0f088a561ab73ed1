package imdb

import (
	"errors"
	"testing"

	"monsoon/internal/cost"
	"monsoon/internal/engine"
	"monsoon/internal/opt"
	"monsoon/internal/stats"
)

func TestGenerateShape(t *testing.T) {
	cat := Generate(Config{Titles: 500, Seed: 1})
	for _, name := range []string{"title", "name", "cast_info", "movie_companies",
		"company_name", "company_type", "movie_info", "info_type", "movie_keyword", "keyword"} {
		if _, ok := cat.Get(name); !ok {
			t.Fatalf("missing table %q", name)
		}
	}
	if cat.MustGet("title").Count() != 500 {
		t.Errorf("titles = %d", cat.MustGet("title").Count())
	}
	if cat.MustGet("cast_info").Count() != 2000 {
		t.Errorf("cast_info = %d, want 4x titles", cat.MustGet("cast_info").Count())
	}
}

func TestGenerateSkewAndCorrelation(t *testing.T) {
	cat := Generate(Config{Titles: 2000, Seed: 2})
	// Fan-out skew: the hottest movie_id in cast_info should far exceed the
	// mean (6 rows/title).
	ci := cat.MustGet("cast_info")
	mi := ci.Schema.MustLookup("cast_info.movie_id")
	h := map[int64]int{}
	for _, row := range ci.Rows {
		h[row[mi].AsInt()]++
	}
	max := 0
	for _, c := range h {
		if c > max {
			max = c
		}
	}
	if max < 60 {
		t.Errorf("cast fan-out not skewed: hottest title has %d rows", max)
	}
	// Correlation: episodes (kind 4) almost never have budget rows (type 1).
	title := cat.MustGet("title")
	kindOf := map[int64]int64{}
	ti := title.Schema.MustLookup("title.id")
	ki := title.Schema.MustLookup("title.kind_id")
	for _, row := range title.Rows {
		kindOf[row[ti].AsInt()] = row[ki].AsInt()
	}
	info := cat.MustGet("movie_info")
	mIdx := info.Schema.MustLookup("movie_info.movie_id")
	tIdx := info.Schema.MustLookup("movie_info.info_type_id")
	episodeRows, episodeBudgets := 0, 0
	for _, row := range info.Rows {
		if kindOf[row[mIdx].AsInt()] == 4 {
			episodeRows++
			if row[tIdx].AsInt() == 1 {
				episodeBudgets++
			}
		}
	}
	if episodeRows > 100 && float64(episodeBudgets)/float64(episodeRows) > 0.05 {
		t.Errorf("episode/budget correlation missing: %d/%d", episodeBudgets, episodeRows)
	}
}

func TestBootstrapScaling(t *testing.T) {
	small := Generate(Config{Titles: 300, Seed: 3})
	big := Generate(Config{Titles: 300, Seed: 3, Bootstrap: 5})
	if big.MustGet("cast_info").Count() != 5*small.MustGet("cast_info").Count() {
		t.Errorf("bootstrap 5x failed: %d vs %d",
			big.MustGet("cast_info").Count(), small.MustGet("cast_info").Count())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Titles: 200, Seed: 9})
	b := Generate(Config{Titles: 200, Seed: 9})
	ra, rb := a.MustGet("movie_info").Rows, b.MustGet("movie_info").Rows
	if len(ra) != len(rb) {
		t.Fatal("nondeterministic sizes")
	}
	for i := range ra[:50] {
		for j := range ra[i] {
			if !ra[i][j].Equal(rb[i][j]) {
				t.Fatal("nondeterministic content")
			}
		}
	}
}

func TestQueriesShape(t *testing.T) {
	qs := Queries(60, 42)
	if len(qs) != 60 {
		t.Fatalf("got %d queries", len(qs))
	}
	seen := map[string]bool{}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
		if q.Aliases().Size() < 3 || q.Aliases().Size() > 9 {
			t.Errorf("%s: %d tables out of range", q.Name, q.Aliases().Size())
		}
		seen[q.Name] = true
	}
	if len(seen) != 60 {
		t.Errorf("duplicate query names: %d distinct", len(seen))
	}
	// Determinism.
	qs2 := Queries(60, 42)
	for i := range qs {
		if qs[i].Aliases().Key() != qs2[i].Aliases().Key() {
			t.Fatal("query generation nondeterministic")
		}
	}
}

func TestQueriesExecutable(t *testing.T) {
	// Star joins over skewed fan-outs can legitimately explode under a naive
	// plan — that is the benchmark's whole point — so a budget abort counts
	// as acceptable here; planner or binding errors do not.
	cat := Generate(Config{Titles: 150, Seed: 5})
	aborted := 0
	for _, q := range Queries(20, 7) {
		eng := engine.New(cat)
		st := stats.New()
		eng.SeedBaseStats(q, st)
		dv := &cost.Deriver{Q: q, St: st, Miss: cost.DefaultMiss(0.1)}
		tree, err := opt.BestPlan(q, dv)
		if err != nil {
			t.Fatalf("%s: plan: %v", q.Name, err)
		}
		if _, _, err := eng.NewExec(engine.ExecConfig{}).ExecTree(q, tree, &engine.Budget{MaxTuples: 1e6}); err != nil {
			if errors.Is(err, engine.ErrBudget) {
				aborted++
				continue
			}
			t.Errorf("%s: exec: %v", q.Name, err)
		}
	}
	if aborted == 20 {
		t.Error("every query aborted; the scale is unusable")
	}
}
