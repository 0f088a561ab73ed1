package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"monsoon/internal/engine"
	"monsoon/internal/obs"
	"monsoon/internal/plancache"
	"monsoon/internal/stats"
)

// capture is everything one run observes that determinism promises to fix:
// the result accounting, the executed multi-step plan, the legacy trace
// lines, and (for span-level comparisons) the structured span stream.
type capture struct {
	res   *Result
	lines []string
	spans []*obs.Span
}

// spanKey renders the machine-independent part of a span — everything except
// IDs and wall-clock timing, which legitimately differ between runs.
func spanKey(sp *obs.Span) string {
	return fmt.Sprintf("%s|%s|in=%d|out=%d|prod=%g|num=%v|str=%v",
		sp.Kind, sp.Name, sp.RowsIn, sp.RowsOut, sp.Produced, sp.Num, sp.Str)
}

func spanKeys(spans []*obs.Span) []string {
	keys := make([]string, len(spans))
	for i, sp := range spans {
		keys[i] = spanKey(sp)
	}
	return keys
}

// checkSameOutcome compares the parts of two captures that must match for any
// two runs of the same (query, seed): accounting, trees, and trace lines.
func checkSameOutcome(t *testing.T, label string, got, want capture) {
	t.Helper()
	g, w := got.res, want.res
	if g.Value != w.Value || g.Rows != w.Rows || g.Produced != w.Produced {
		t.Errorf("%s: value/rows/produced %g/%d/%g, solo %g/%d/%g",
			label, g.Value, g.Rows, g.Produced, w.Value, w.Rows, w.Produced)
	}
	if g.Actions != w.Actions || g.Executes != w.Executes || g.SigmaOps != w.SigmaOps {
		t.Errorf("%s: actions/executes/sigma %d/%d/%d, solo %d/%d/%d",
			label, g.Actions, g.Executes, g.SigmaOps, w.Actions, w.Executes, w.SigmaOps)
	}
	if !reflect.DeepEqual(runTrees(g), runTrees(w)) {
		t.Errorf("%s: executed trees %q, solo %q", label, runTrees(g), runTrees(w))
	}
	if !reflect.DeepEqual(got.lines, want.lines) {
		t.Errorf("%s: trace lines\n%q\nsolo\n%q", label, got.lines, want.lines)
	}
	if g.Output == nil || w.Output == nil {
		t.Fatalf("%s: missing output relation (got %v, solo %v)", label, g.Output, w.Output)
	}
	if g.Output.Count() != w.Output.Count() {
		t.Errorf("%s: output rows %d, solo %d", label, g.Output.Count(), w.Output.Count())
	}
}

// TestConcurrentSessionsBitIdentical is the shared-substrate determinism
// gate this package's Exec-scope refactor exists for: N Sessions running
// concurrently on ONE engine, sharing ONE plan cache and cloning ONE seed
// statistics store, must each produce bit-identical results, executed trees,
// and trace lines to a solo run of the same (query, seed) on a private
// engine. Run under -race this also proves the sharing is memory-safe.
func TestConcurrentSessionsBitIdentical(t *testing.T) {
	seeds := []int64{7, 11, 42}
	const perSeed = 2 // two racing sessions per seed exercises same-key cache races

	solo := make(map[int64]capture)
	seedStats := stats.New()
	for _, seed := range seeds {
		cat, q := fixture()
		eng := engine.New(cat)
		var lines []string
		res, err := Run(q, eng, &engine.Budget{}, Config{
			Seed: seed, Iterations: 300, Stats: seedStats.Clone(),
			Sink: obs.MessageSink(func(s string) { lines = append(lines, s) }),
		})
		if err != nil {
			t.Fatalf("solo seed %d: %v", seed, err)
		}
		solo[seed] = capture{res: res, lines: lines}
	}

	// One shared engine, catalog, and cache for every concurrent session.
	cat, _ := fixture()
	eng := engine.New(cat)
	cache := plancache.New(0)

	type slot struct {
		seed int64
		cap  capture
		err  error
	}
	slots := make([]slot, len(seeds)*perSeed)
	var wg sync.WaitGroup
	for i := range slots {
		slots[i].seed = seeds[i%len(seeds)]
		wg.Add(1)
		go func(sl *slot) {
			defer wg.Done()
			_, q := fixture() // private query value; tables resolve in the shared catalog
			var lines []string
			res, err := Run(q, eng, &engine.Budget{}, Config{
				Seed: sl.seed, Iterations: 300, Stats: seedStats.Clone(),
				Cache: cache, Sink: obs.MessageSink(func(s string) { lines = append(lines, s) }),
			})
			sl.cap, sl.err = capture{res: res, lines: lines}, err
		}(&slots[i])
	}
	wg.Wait()

	for i, sl := range slots {
		if sl.err != nil {
			t.Fatalf("concurrent session %d (seed %d): %v", i, sl.seed, sl.err)
		}
		checkSameOutcome(t, fmt.Sprintf("session %d (seed %d)", i, sl.seed), sl.cap, solo[sl.seed])
		// Every pick is either searched (one miss) or taken from the cache
		// (one hit), so consultations equal actions. The split depends on
		// which racing session memoized a pick first, so it is deliberately
		// not pinned here.
		if hm := sl.cap.res.CacheHits + sl.cap.res.CacheMisses; hm != sl.cap.res.Actions {
			t.Errorf("session %d: cache hits+misses = %d, want actions = %d",
				i, hm, sl.cap.res.Actions)
		}
	}
}

// TestConcurrentSessionsSpanStreamsIdentical compares the full structured
// span streams of concurrent cacheless sessions against solo runs: solo and
// concurrent runs share the process's GOMAXPROCS width, so every span — kind,
// name, rows, produced, numeric and string attributes (plan_workers
// included), in emission order — must match the solo stream exactly even
// while other sessions hammer the same engine.
func TestConcurrentSessionsSpanStreamsIdentical(t *testing.T) {
	seeds := []int64{7, 11, 42}

	solo := make(map[int64][]string)
	for _, seed := range seeds {
		cat, q := fixture()
		eng := engine.New(cat)
		col := &obs.Collector{}
		cfg := Config{Seed: seed, Iterations: 300, Sink: col}
		if _, err := Run(q, eng, &engine.Budget{}, cfg); err != nil {
			t.Fatalf("solo seed %d: %v", seed, err)
		}
		solo[seed] = spanKeys(col.Spans)
	}

	cat, _ := fixture()
	eng := engine.New(cat)
	streams := make([][]string, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			_, q := fixture()
			col := &obs.Collector{}
			cfg := Config{Seed: seed, Iterations: 300, Sink: col}
			_, errs[i] = Run(q, eng, &engine.Budget{}, cfg)
			streams[i] = spanKeys(col.Spans)
		}(i, seed)
	}
	wg.Wait()

	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatalf("concurrent seed %d: %v", seed, errs[i])
		}
		if !reflect.DeepEqual(streams[i], solo[seed]) {
			t.Errorf("seed %d: concurrent span stream diverged from solo", seed)
			for j := 0; j < len(streams[i]) && j < len(solo[seed]); j++ {
				if streams[i][j] != solo[seed][j] {
					t.Errorf("  first divergence at span %d:\n  concurrent %s\n  solo       %s",
						j, streams[i][j], solo[seed][j])
					break
				}
			}
			if len(streams[i]) != len(solo[seed]) {
				t.Errorf("  stream lengths %d vs %d", len(streams[i]), len(solo[seed]))
			}
		}
	}
}

// TestConcurrentSessionsHardenedSeedWriteBack is the race proof for the
// search's lock-free statistics reads, on the daemon's -harden-stats shape:
// N sessions share ONE seed store, each clones it, plans with several search
// shards in flight (every shard reading the session's frozen layers through
// its own overlay, no mutex), and merges what it hardened back into the seed
// while the others are still cloning, planning and merging. With write-back
// the plans depend on who finished first — that is the documented trade — so
// only the answer is pinned; the race detector is the oracle for the rest.
func TestConcurrentSessionsHardenedSeedWriteBack(t *testing.T) {
	cat, q := fixture()
	want, err := Run(q, engine.New(cat), &engine.Budget{}, Config{Seed: 1, Iterations: 300})
	if err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	eng := engine.New(cat)
	seedStats := stats.New()
	const sessions, rounds = 6, 3
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				st := seedStats.Clone()
				res, err := Run(q, eng, &engine.Budget{}, Config{
					Seed: int64(10*i + r), Iterations: 300, Stats: st,
				})
				if err == nil && (res.Value != want.Value || res.Rows != want.Rows) {
					err = fmt.Errorf("value/rows %g/%d, want %g/%d", res.Value, res.Rows, want.Value, want.Rows)
				}
				if err != nil {
					errs[i] = fmt.Errorf("session %d round %d: %w", i, r, err)
					return
				}
				seedStats.MergeFrom(st)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	assumed := 0
	for _, e := range seedStats.Entries() {
		if e.Kind == 'a' {
			assumed++
		}
	}
	if seedStats.CountEntries() == 0 || assumed != 0 {
		t.Errorf("seed store after write-back: %d counts, %d assumed; want hardened counts and no assumed",
			seedStats.CountEntries(), assumed)
	}
}

// TestPartialWarmCacheMatchesColdRun pins the cache/planner RNG alignment: a
// session that takes some picks from the cache but must plan the rest itself
// (the normal state when concurrent sessions race to populate a shared
// cache) must make exactly the plan choices of a cache-free run. The cache
// holds either all of round 1's picks or only its first pick, so the run
// plans from the second round on or from the middle of the first. Each
// search's RNG streams are numbered by the actions taken before it, so the
// picks the cache answered leave them where a cache-free run has them.
func TestPartialWarmCacheMatchesColdRun(t *testing.T) {
	const seed, iterations = 11, 300
	cfg := Config{Seed: seed, Iterations: iterations}

	// Cache-free baseline.
	cat, q := fixture()
	var baseLines []string
	baseCfg := cfg
	baseCfg.Sink = obs.MessageSink(func(s string) { baseLines = append(baseLines, s) })
	base, err := Run(q, engine.New(cat), &engine.Budget{}, baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Executes < 2 {
		t.Fatalf("fixture run has %d rounds; need ≥2 to leave the cache partially warm", base.Executes)
	}

	for _, c := range []struct {
		name string
		// warm fills cache with some of the run's picks; it returns how
		// many the run will find there.
		warm func(cache *plancache.Cache, cfg Config) int
	}{
		{"first round", func(cache *plancache.Cache, cfg Config) int {
			// Drive a session through one plan/execute cycle and abandon it.
			cat, q := fixture()
			s := NewSession(q, engine.New(cat), &engine.Budget{}, cfg)
			defer s.Close()
			if execute, err := s.PlanRound(); err != nil || !execute {
				t.Fatalf("first PlanRound: execute=%v err=%v", execute, err)
			}
			if err := s.ExecuteRound(); err != nil {
				t.Fatal(err)
			}
			return s.res.Actions
		}},
		{"first pick", func(cache *plancache.Cache, cfg Config) int {
			// Memoize the whole run, then drop every key but the initial
			// state's.
			cat, q := fixture()
			if _, err := Run(q, engine.New(cat), &engine.Budget{}, cfg); err != nil {
				t.Fatal(err)
			}
			cat, q = fixture()
			s := NewSession(q, engine.New(cat), &engine.Budget{}, cfg)
			initial := s.cacheKey()
			s.Close()
			cache.Invalidate(func(k string) bool { return k != initial })
			if n := cache.Stats().Entries; n != 1 {
				t.Fatalf("cache holds %d entries after invalidation, want 1", n)
			}
			return 1
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cache := plancache.New(0)
			warmCfg := cfg
			warmCfg.Cache = cache
			hits := c.warm(cache, warmCfg)

			cat, q := fixture()
			var warmLines []string
			warmCfg.Sink = obs.MessageSink(func(s string) { warmLines = append(warmLines, s) })
			warm, err := Run(q, engine.New(cat), &engine.Budget{}, warmCfg)
			if err != nil {
				t.Fatal(err)
			}
			if warm.CacheHits != hits || warm.CacheMisses != warm.Actions-hits {
				t.Fatalf("hits/misses = %d/%d, want %d/%d", warm.CacheHits, warm.CacheMisses, hits, warm.Actions-hits)
			}
			checkSameOutcome(t, c.name,
				capture{res: warm, lines: warmLines}, capture{res: base, lines: baseLines})
		})
	}
}
