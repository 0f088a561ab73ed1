package mcts

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"monsoon/internal/randx"
)

// TestRootShardOneMatchesSerial is the golden test against one tree search:
// a one-shard Planner must be bit-identical — same action, same stats — to
// a single tree searched with the shard's derived RNG and forked model.
func TestRootShardOneMatchesSerial(t *testing.T) {
	const seed = 99
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := Config{Iterations: 600, Shards: 1}

	rp := New(cfg, seed)
	ra, rs := rp.Plan(&probeGame{rng: randx.New(0)}, probeState{}, 1, nil, nil)

	sm := (&probeGame{}).Fork(shardSeed(seed, 1, 0, "model"))
	sa, ss := treePlan(cfg, randx.New(shardSeed(seed, 1, 0, "rng")), sm, probeState{})

	if ra.Key() != sa.Key() {
		t.Fatalf("root picked %q, serial %q", ra.Key(), sa.Key())
	}
	if !reflect.DeepEqual(rs, ss) {
		t.Errorf("stats diverge:\nroot   %+v\nserial %+v", rs, ss)
	}
}

// TestRootDeterministicForAnyWorkers pins the tentpole promise: with the
// logical shard decomposition fixed, every GOMAXPROCS width — serial, fewer
// threads than shards, more threads than shards — produces the identical
// action and search stats.
func TestRootDeterministicForAnyWorkers(t *testing.T) {
	run := func(workers int) (string, PlanStats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		rp := New(Config{Iterations: 2000, Shards: 4}, 7)
		a, st := rp.Plan(&probeGame{rng: randx.New(0)}, probeState{}, 1, nil, nil)
		return a.Key(), st
	}
	refKey, refStats := run(1)
	refStats.Workers = 0
	for _, w := range []int{2, 7, 64} {
		key, st := run(w)
		st.Workers = 0
		if key != refKey {
			t.Errorf("workers=%d picked %q, serial run picked %q", w, key, refKey)
		}
		if !reflect.DeepEqual(st, refStats) {
			t.Errorf("workers=%d stats diverge:\ngot  %+v\nwant %+v", w, st, refStats)
		}
	}
}

// TestRootRepeatedCallsDeterministic: the call index selects the derived
// per-call streams, so calls 1..n replay one pinned sequence of picks and
// tree sizes at any worker count. A budget this small leaves the probe game
// undecided, so the picks differ between calls and a stream drawn at the
// wrong index shows.
func TestRootRepeatedCallsDeterministic(t *testing.T) {
	wantKeys := []string{"guess0", "guess0", "guess0", "guess1", "guess0", "guess1", "guess1", "guess0"}
	wantNodes := []int{22, 21, 19, 18, 18, 21, 20, 20}
	for _, workers := range []int{1, 64} {
		prev := runtime.GOMAXPROCS(workers)
		rp := New(Config{Iterations: 30, Shards: 3}, 13)
		var keys []string
		var nodes []int
		for call := 1; call <= len(wantKeys); call++ {
			a, st := rp.Plan(&probeGame{rng: randx.New(0)}, probeState{}, call, nil, nil)
			keys, nodes = append(keys, a.Key()), append(nodes, st.Nodes)
		}
		runtime.GOMAXPROCS(prev)
		if !reflect.DeepEqual(keys, wantKeys) || !reflect.DeepEqual(nodes, wantNodes) {
			t.Errorf("workers=%d: picks %q nodes %v, want %q %v", workers, keys, nodes, wantKeys, wantNodes)
		}
	}
}

// TestRootConcurrentPlanCalls: a Planner keeps no state between calls, so
// concurrent Plan calls at one call index on one Planner each return what a
// serial call returns. Run under -race.
func TestRootConcurrentPlanCalls(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rp := New(Config{Iterations: 2000, Shards: 4}, 7)
	plan := func() (string, PlanStats) {
		a, st := rp.Plan(&probeGame{rng: randx.New(0)}, probeState{}, 3, nil, nil)
		return a.Key(), st
	}
	wantKey, wantStats := plan()
	keys := make([]string, 4)
	stats := make([]PlanStats, 4)
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys[i], stats[i] = plan()
		}(i)
	}
	wg.Wait()
	for i := range keys {
		if keys[i] != wantKey || !reflect.DeepEqual(stats[i], wantStats) {
			t.Errorf("goroutine %d: (%q, %+v), serial call (%q, %+v)", i, keys[i], stats[i], wantKey, wantStats)
		}
	}
}

// TestRootZeroQuotaShards: an iteration budget smaller than the shard count
// leaves some shards with zero rollouts; the search must still complete,
// spend exactly the budget, and stay worker-count invariant.
func TestRootZeroQuotaShards(t *testing.T) {
	run := func(workers int) (string, PlanStats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		rp := New(Config{Iterations: 3, Shards: 8}, 5)
		a, st := rp.Plan(&probeGame{rng: randx.New(0)}, probeState{}, 1, nil, nil)
		if a == nil {
			t.Fatal("Plan returned nil on a non-terminal root")
		}
		return a.Key(), st
	}
	key, st := run(1)
	if st.Rollouts != 3 {
		t.Errorf("rollouts = %d, want exactly the budget 3", st.Rollouts)
	}
	if st.Nodes < 8 {
		t.Errorf("nodes = %d, want at least one root node per shard", st.Nodes)
	}
	for _, w := range []int{2, 7, 64} {
		k, s := run(w)
		s.Workers, st.Workers = 0, 0
		if k != key || !reflect.DeepEqual(s, st) {
			t.Errorf("workers=%d: (%q, %+v) != serial (%q, %+v)", w, k, s, key, st)
		}
	}
}

// TestRootFastPaths: terminal and single-action roots take the fast paths —
// no search, no RNG draws.
func TestRootFastPaths(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rp := New(Config{}, 1)
	a, st := rp.Plan(bandit{}, banditState{done: true}, 1, nil, nil)
	if a != nil {
		t.Errorf("terminal root must plan nil, got %v", a)
	}
	if !st.FastPath || st.Rollouts != 0 {
		t.Errorf("terminal root stats = %+v, want fast path without rollouts", st)
	}

	g := &singleGame{}
	a, st = rp.Plan(g, banditState{}, 2, nil, nil)
	if a == nil || a.Key() != "0" {
		t.Fatalf("single-action Plan = %v", a)
	}
	if g.steps != 0 {
		t.Errorf("single-action root must not simulate, did %d steps", g.steps)
	}
	if !st.FastPath || st.Nodes != 1 {
		t.Errorf("single-action root stats = %+v, want fast path with one node", st)
	}
}

// TestRootBanditQuality: the merged tree still identifies the best arm for
// both strategies, with the budget split across shards.
func TestRootBanditQuality(t *testing.T) {
	for _, strat := range []Strategy{UCT, EpsGreedy} {
		rp := New(Config{Strategy: strat, Iterations: 400}, 1)
		a, _ := rp.Plan(bandit{}, banditState{}, 1, nil, nil)
		if a.(banditAction) != 2 {
			t.Errorf("strategy %d picked arm %v, want 2", strat, a)
		}
	}
}

// TestRootProbeQuality: value-of-information reasoning survives the shard
// split — each shard independently discovers that probing dominates, and the
// merged averages keep the ranking.
func TestRootProbeQuality(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rp := New(Config{Iterations: 4000, Shards: 8}, 42)
	a, st := rp.Plan(&probeGame{rng: randx.New(0)}, probeState{}, 1, nil, nil)
	if a.Key() != "probe" {
		t.Errorf("picked %q, want probe", a.Key())
	}
	if st.Rollouts != 4000 {
		t.Errorf("rollouts = %d, want the full 4000 budget", st.Rollouts)
	}
}

// TestShardQuotas pins the budget split: sizes differ by at most one with
// the remainder on the lowest-numbered shards, summing to the budget.
func TestShardQuotas(t *testing.T) {
	cases := []struct {
		iters, shards int
		want          []int
	}{
		{10, 3, []int{4, 3, 3}},
		{8, 8, []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{3, 8, []int{1, 1, 1, 0, 0, 0, 0, 0}},
		{7, 1, []int{7}},
	}
	for _, c := range cases {
		if got := shardQuotas(c.iters, c.shards); !reflect.DeepEqual(got, c.want) {
			t.Errorf("shardQuotas(%d,%d) = %v, want %v", c.iters, c.shards, got, c.want)
		}
	}
}

// TestDerivedShardCount pins the adaptive decomposition: one shard per
// minShardQuota rollouts, clamped to [1, DefaultShards].
func TestDerivedShardCount(t *testing.T) {
	cases := []struct{ iters, want int }{
		{1, 1}, {74, 1}, {149, 1}, {150, 2}, {300, 4}, {600, 8}, {800, 8}, {100000, 8},
	}
	for _, c := range cases {
		rp := New(Config{Iterations: c.iters}, 1)
		if rp.cfg.Shards != c.want {
			t.Errorf("iterations=%d derived %d shards, want %d", c.iters, rp.cfg.Shards, c.want)
		}
	}
}

// mergeNodeRef is the recursive merge the planner once ran over whole shard
// trees: per-action edge visits and totals summed, chance children unioned by
// outcome key, all the way down. It is kept as the reference for the
// root-only merge.
func mergeNodeRef(dst, src *node) {
	dst.visits += src.visits
	if len(src.edges) != len(dst.edges) {
		return
	}
	for i, se := range src.edges {
		if se == nil {
			continue
		}
		de := dst.edges[i]
		if de == nil {
			dst.edges[i] = se
			continue
		}
		de.visits += se.visits
		de.total += se.total
		if de.only != nil && se.only != nil {
			mergeNodeRef(de.only, se.only)
		}
		for key, sk := range se.kids {
			if dk, ok := de.kids[key]; ok {
				mergeNodeRef(dk, sk)
			} else {
				de.kids[key] = sk
			}
		}
	}
}

// TestRootMergeMatchesRecursive runs a Plan call's shards one by one, merges
// their trees recursively, and holds the planner's root-only merge to it: the
// same pick, and the same visits and totals, bit for bit, on every root edge.
// The planner lists the root once and every other node only when a shard
// enters it, and counts every node the shards created.
func TestRootMergeMatchesRecursive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, strat := range []Strategy{UCT, EpsGreedy} {
		p := New(Config{Strategy: strat, Iterations: 600, Shards: 4}, 21)
		const call = 2
		root := &countState{}
		game := func() *countGame { return &countGame{rng: randx.New(0), legal: new(atomic.Int64)} }

		ref := game()
		actions := ref.Legal(root)
		var merged *node
		nodes, entered := 0, 0
		for i, q := range shardQuotas(p.cfg.Iterations, p.cfg.Shards) {
			sm := ref.Fork(shardSeed(p.seed, call, i, "model"))
			tr := &tree{cfg: p.cfg, rng: randx.New(shardSeed(p.seed, call, i, "rng"))}
			tr.cfg.Iterations = q
			n := tr.newNode(root.CloneForSearch())
			n.list(actions)
			tr.search(sm, n)
			walk(n, func(n *node) {
				nodes++
				entered += n.state.(*countState).listed
			})
			if merged == nil {
				merged = n
			} else {
				mergeNodeRef(merged, n)
			}
		}

		g := game()
		a, st := p.Plan(g, &countState{}, call, nil, nil)
		if want := settle(merged); a.Key() != want.Key() {
			t.Errorf("strategy %d: Plan picked %q, the recursive merge %q", strat, a.Key(), want.Key())
		}
		if st.Nodes != nodes {
			t.Errorf("strategy %d: PlanStats.Nodes %d, the shards created %d", strat, st.Nodes, nodes)
		}
		// One listing of the root, one of each node a shard entered.
		if got := int(g.legal.Load()); got != 1+entered || got >= nodes {
			t.Errorf("strategy %d: %d Legal calls, want %d of %d nodes", strat, got, 1+entered, nodes)
		}

		got, _ := p.search(game(), &countState{}, actions, call, nil, nil)
		for i, e := range got.edges {
			w := merged.edges[i]
			if (e == nil) != (w == nil) || e != nil && (e.visits != w.visits || math.Float64bits(e.total) != math.Float64bits(w.total)) {
				t.Errorf("strategy %d: root edge %d is %+v, the recursive merge's %+v", strat, i, e, w)
			}
		}
	}
}
