package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"monsoon/internal/engine"
	"monsoon/internal/obs"
	"monsoon/internal/plancache"
)

// runTrees renders the executed multi-step plan for comparison.
func runTrees(res *Result) []string {
	var trees []string
	for _, n := range res.Executed {
		trees = append(trees, n.String())
	}
	return trees
}

// TestCachedEqualsUncachedGolden is the cached≡uncached guarantee: for every
// pinned golden trajectory, a cold cache-on run is bit-identical to the
// uncached run (all misses, same search), and a warm re-run through the now
// populated cache takes the exact same picks and accounting from it while
// skipping MCTS entirely (one hit per pick, no misses).
func TestCachedEqualsUncachedGolden(t *testing.T) {
	for _, g := range goldenFixtureRuns {
		cache := plancache.New(0)
		var cold, warm *Result
		for i, c := range []*plancache.Cache{nil, cache, cache} {
			cat, q := fixture()
			eng := engine.New(cat)
			res, err := Run(q, eng, &engine.Budget{}, Config{
				Seed: g.seed, Iterations: g.iterations, Cache: c,
			})
			if err != nil {
				t.Fatalf("seed %d run %d: %v", g.seed, i, err)
			}
			checkGolden(t, []string{"uncached", "cold", "warm"}[i], g, res)
			switch i {
			case 1:
				cold = res
			case 2:
				warm = res
			}
		}
		if cold.CacheHits != 0 || cold.CacheMisses != cold.Actions {
			t.Errorf("seed %d cold: hits/misses = %d/%d, want 0/%d",
				g.seed, cold.CacheHits, cold.CacheMisses, cold.Actions)
		}
		if warm.CacheMisses != 0 || warm.CacheHits != warm.Actions {
			t.Errorf("seed %d warm: hits/misses = %d/%d, want %d/0 (one hit per pick)",
				g.seed, warm.CacheHits, warm.CacheMisses, warm.Actions)
		}
		if warm.PlanTime*5 > cold.PlanTime {
			t.Errorf("seed %d: warm plan time %v not ≥5× below cold %v",
				g.seed, warm.PlanTime, cold.PlanTime)
		}
	}
}

// TestCachedWarmTraceIdentical: the warm run emits the exact trace lines
// the cold (searching) run emits — actions, order, and execution messages.
func TestCachedWarmTraceIdentical(t *testing.T) {
	cache := plancache.New(0)
	var runs [][]string
	for i := 0; i < 2; i++ {
		cat, q := fixture()
		eng := engine.New(cat)
		var lines []string
		_, err := Run(q, eng, &engine.Budget{}, Config{Seed: 11, Iterations: 300,
			Cache: cache, Sink: obs.MessageSink(func(s string) { lines = append(lines, s) })})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, lines)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("warm trace:\n%q\ncold trace:\n%q", runs[1], runs[0])
	}
}

// TestPlanSpanCacheHitAttr pins the cache_hit telemetry contract: absent
// without a cache, "false" on every searching span, "true" on every cache-hit
// span, with one plan span per action in all three modes.
func TestPlanSpanCacheHitAttr(t *testing.T) {
	cache := plancache.New(0)
	for i, want := range []string{"", "false", "true"} {
		cat, q := fixture()
		eng := engine.New(cat)
		var c *plancache.Cache
		if i > 0 {
			c = cache
		}
		col := &obs.Collector{}
		res, err := Run(q, eng, &engine.Budget{}, Config{Seed: 42, Iterations: 300, Sink: col, Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		plans := col.SpansOf(obs.KPlan)
		if len(plans) != res.Actions {
			t.Fatalf("mode %d: plan spans = %d, want one per action = %d", i, len(plans), res.Actions)
		}
		for _, sp := range plans {
			if got := sp.Str[obs.AttrCacheHit]; got != want {
				t.Errorf("mode %d: cache_hit = %q, want %q", i, got, want)
			}
		}
	}
}

// TestPlanCacheMetricsCounters: hit/miss counters surface in the registry.
func TestPlanCacheMetricsCounters(t *testing.T) {
	cache := plancache.New(0)
	reg := obs.NewRegistry()
	for i := 0; i < 2; i++ {
		cat, q := fixture()
		eng := engine.New(cat)
		if _, err := Run(q, eng, &engine.Budget{}, Config{Seed: 7, Iterations: 300,
			Cache: cache, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
	}
	if hits := reg.Counter("monsoon.plancache.hits").Value(); hits < 1 {
		t.Errorf("plancache.hits = %v, want ≥ 1", hits)
	}
	if misses := reg.Counter("monsoon.plancache.misses").Value(); misses < 1 {
		t.Errorf("plancache.misses = %v, want ≥ 1", misses)
	}
	s := cache.Stats()
	if s.Hits < 1 || s.Misses < 1 {
		t.Errorf("cache stats = %+v, want hits and misses", s)
	}
}

// TestPlanCacheMetricsGauges: cache pressure — current size and LRU
// evictions — surfaces in the registry alongside the hit/miss counters, set
// when the session closes. A capacity-1 cache under a multi-round run must
// evict; an unbounded one must not.
func TestPlanCacheMetricsGauges(t *testing.T) {
	for _, c := range []struct {
		name string
		cap  int
	}{{"unbounded", 0}, {"capacity-1", 1}} {
		cache := plancache.New(c.cap)
		reg := obs.NewRegistry()
		cat, q := fixture()
		eng := engine.New(cat)
		if _, err := Run(q, eng, &engine.Budget{}, Config{Seed: 7, Iterations: 300,
			Cache: cache, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		cs := cache.Stats()
		if got := reg.Gauge("monsoon.plancache.entries").Value(); got != float64(cs.Entries) {
			t.Errorf("%s: plancache.entries gauge = %v, cache reports %d", c.name, got, cs.Entries)
		}
		if got := reg.Gauge("monsoon.plancache.evictions").Value(); got != float64(cs.Evictions) {
			t.Errorf("%s: plancache.evictions gauge = %v, cache reports %d", c.name, got, cs.Evictions)
		}
		evicted := cs.Evictions > 0
		if wantEvict := c.cap == 1; evicted != wantEvict {
			t.Errorf("%s: evictions = %d, want evictions iff capacity-bounded", c.name, cs.Evictions)
		}
		if cs.Entries < 1 {
			t.Errorf("%s: cache holds %d entries after the run, want ≥ 1", c.name, cs.Entries)
		}
	}
}

// TestSessionManualDrive: driving the phases by hand is the same run the
// compatibility wrapper performs.
func TestSessionManualDrive(t *testing.T) {
	cat, q := fixture()
	engA := engine.New(cat)
	want, err := Run(q, engA, &engine.Budget{}, Config{Seed: 11, Iterations: 300})
	if err != nil {
		t.Fatal(err)
	}

	catB, qB := fixture()
	engB := engine.New(catB)
	s := NewSession(qB, engB, &engine.Budget{}, Config{Seed: 11, Iterations: 300})
	defer s.Close()
	rounds := 0
	for {
		execute, err := s.PlanRound()
		if err != nil {
			t.Fatal(err)
		}
		if !execute {
			break
		}
		// PlanRound is idempotent while an EXECUTE is pending.
		if again, _ := s.PlanRound(); !again {
			t.Fatal("PlanRound must keep reporting the pending EXECUTE")
		}
		if err := s.ExecuteRound(); err != nil {
			t.Fatal(err)
		}
		rounds++
	}
	got, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if rounds != want.Executes {
		t.Errorf("rounds = %d, want %d", rounds, want.Executes)
	}
	if got.Value != want.Value || got.Rows != want.Rows || got.Produced != want.Produced ||
		got.Actions != want.Actions || got.SigmaOps != want.SigmaOps {
		t.Errorf("manual drive result %+v != Run result %+v", got, want)
	}
	if !reflect.DeepEqual(runTrees(got), runTrees(want)) {
		t.Errorf("manual trees %q != Run trees %q", runTrees(got), runTrees(want))
	}
}

// TestExecuteRoundWithoutPlan: ExecuteRound demands a pending EXECUTE.
func TestExecuteRoundWithoutPlan(t *testing.T) {
	cat, q := fixture()
	eng := engine.New(cat)
	s := NewSession(q, eng, &engine.Budget{}, Config{Seed: 7, Iterations: 100})
	defer s.Close()
	if err := s.ExecuteRound(); err == nil {
		t.Error("ExecuteRound without PlanRound must fail")
	}
}

// TestExecuteRoundDeadlineBetweenTrees is the budget fix: when the deadline
// passes while a round's earlier tree runs, the loop stops between trees with
// engine.ErrBudget and the completed trees' accounting preserved — it does
// not start the next tree. Seed 19 plans two trees (Σ(S) then the final
// join) in its first round; a clock pushed past the deadline after PlanRound
// must stop after the first.
func TestExecuteRoundDeadlineBetweenTrees(t *testing.T) {
	cat, q := fixture()
	eng := engine.New(cat)
	budget := &engine.Budget{Deadline: time.Now().Add(time.Hour)}
	s := NewSession(q, eng, budget, Config{Seed: 19, Iterations: 300})
	defer s.Close()
	execute, err := s.PlanRound()
	if err != nil || !execute {
		t.Fatalf("PlanRound = %v, %v", execute, err)
	}
	// The engine's own deadline (real clock) never trips; only the session's
	// between-trees check sees the advanced clock.
	s.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	if err := s.ExecuteRound(); !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("err = %v, want engine.ErrBudget", err)
	}
	res := s.Result()
	if trees := runTrees(res); !reflect.DeepEqual(trees, []string{"Σ(S)"}) {
		t.Errorf("partial round executed %q, want just the first tree", trees)
	}
	if res.SigmaOps != 1 || res.Produced != 200 {
		t.Errorf("partial accounting sigma/produced = %d/%g, want 1/200", res.SigmaOps, res.Produced)
	}
	if res.Executes != 0 {
		t.Errorf("aborted round must not count as an execute, got %d", res.Executes)
	}
}

// TestPlanRoundDeadline: the round-top deadline check still fires.
func TestPlanRoundDeadline(t *testing.T) {
	cat, q := fixture()
	eng := engine.New(cat)
	budget := &engine.Budget{Deadline: time.Now().Add(-time.Second)}
	s := NewSession(q, eng, budget, Config{Seed: 7, Iterations: 300})
	defer s.Close()
	if _, err := s.PlanRound(); !errors.Is(err, engine.ErrBudget) {
		t.Errorf("err = %v, want engine.ErrBudget", err)
	}
}
