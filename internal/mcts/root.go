// Root-parallel MCTS (§5.1 under a wall-clock budget): the rollout budget is
// pre-partitioned over a fixed set of logical workers ("shards"). Every shard
// gets a pre-assigned quota and its own RNG seeded from the planner seed, the
// caller's call index and the shard index, and searches an independent tree
// from its own clone of the root, which starts from the root's action list
// the caller computed once. The pick reads only the root's edges, so only the
// roots are merged: per root action, visits and totals are summed in
// shard-index order, and the shard trees below are dropped. Because the
// decomposition (shard count, quotas, seeds) is a function of the
// configuration and the call index only — never of GOMAXPROCS, which caps the
// threads the shards run on — the merged visit counts and values are
// bit-identical at any width, including fully serial execution. Threads trade
// wall time, nothing else.
package mcts

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"monsoon/internal/obs"
	"monsoon/internal/randx"
)

const (
	// DefaultShards caps the derived logical worker count.
	DefaultShards = 8
	// minShardQuota is the smallest rollout quota worth an independent tree:
	// below ~75 rollouts a shard's ε/UCT schedule barely leaves expansion, so
	// the derived shard count shrinks with the iteration budget rather than
	// splintering small searches. (Measured on the core R/S/T trap fixture,
	// the 8×75 ensemble at an 600-iteration budget avoids the trap at least
	// as often as one 600-iteration stream — independent shards don't all
	// fall for the same sampled world — so the split costs no plan quality.)
	minShardQuota = 75
)

// Planner runs root-parallel MCTS. It holds only its configuration and seed,
// both fixed by New, so one Planner may serve concurrent Plan calls; the
// parallelism within a call is internal.
type Planner struct {
	cfg  Config
	seed int64
}

// New creates a planner. seed is the planner's base randomness; per-shard
// streams are derived from it, the call index, and the shard index, so equal
// (config, seed) planners replay identically.
func New(cfg Config, seed int64) *Planner {
	if cfg.Shards <= 0 {
		s := cfg.Iterations / minShardQuota
		if s < 1 {
			s = 1
		}
		if s > DefaultShards {
			s = DefaultShards
		}
		cfg.Shards = s
	}
	return &Planner{cfg: cfg, seed: seed}
}

// shardQuotas splits the iteration budget into shard quotas differing by at
// most one rollout, remainder to the lowest-numbered shards.
func shardQuotas(iters, shards int) []int {
	q := make([]int, shards)
	base, rem := iters/shards, iters%shards
	for i := range q {
		q[i] = base
		if i < rem {
			q[i]++
		}
	}
	return q
}

// shardSeed derives the seed of one shard's named stream for one Plan call.
func shardSeed(base int64, call, shard int, stream string) int64 {
	return randx.Derive(base, fmt.Sprintf("call%d/shard%d/%s", call, shard, stream))
}

// Plan runs every shard's quota (concurrently up to GOMAXPROCS), merges
// the shard roots in shard-index order, and returns the action with the best
// average return over the merged root, or nil if root is terminal/stuck,
// with the statistics of the search aggregated across shards (rollouts and
// nodes sum, depth is the max). call numbers the caller's planning calls
// from 1: every (call, shard) pair draws from its own derived RNG streams,
// so equal calls on equal planners search identically. A real search emits
// one KPlanShard span per shard under parent, carrying the shard's quota,
// rollouts, nodes, and its own busy time; shard count and quotas derive from
// the configuration alone, so shard-span counts are machine-independent. A
// nil tracer switches shard spans off.
func (p *Planner) Plan(m Model, root State, call int, tr *obs.Tracer, parent *obs.Span) (Action, PlanStats) {
	// Root fast paths: no search, no RNG draws, one (root) node on the books.
	var actions []Action
	if !root.Terminal() {
		actions = m.Legal(root)
	}
	if len(actions) <= 1 {
		ps := PlanStats{RootActions: len(actions), FastPath: true, Nodes: 1, Workers: 1}
		if len(actions) == 0 {
			return nil, ps
		}
		return actions[0], ps
	}
	merged, ps := p.search(m, root, actions, call, tr, parent)
	return settle(merged), ps
}

// search runs the shards from root, whose legal actions are actions, and
// returns their merged root and the aggregated statistics.
func (p *Planner) search(m Model, root State, actions []Action, call int, tr *obs.Tracer, parent *obs.Span) (*node, PlanStats) {
	quotas := shardQuotas(p.cfg.Iterations, p.cfg.Shards)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(quotas) {
		workers = len(quotas)
	}

	// Pre-create the shard spans on the coordinating goroutine (deterministic
	// IDs) before any worker launches; they are ended in index order after
	// the barrier with each shard's own measured busy time.
	var shardSpans []*obs.Span
	if tr.Active() {
		shardSpans = make([]*obs.Span, len(quotas))
		for i := range quotas {
			shardSpans[i] = tr.StartChild(parent, obs.KPlanShard, fmt.Sprintf("shard%d", i)).
				SetNum("quota", float64(quotas[i]))
		}
	}
	elapsed := make([]time.Duration, len(quotas))

	shardRoots := make([]State, len(quotas))
	for i := range shardRoots {
		shardRoots[i] = root.CloneForSearch()
	}
	roots := make([]*node, len(quotas))
	stats := make([]PlanStats, len(quotas))
	runShard := func(i int) {
		t0 := time.Now()
		defer func() { elapsed[i] = time.Since(t0) }()
		sm := m.Fork(shardSeed(p.seed, call, i, "model"))
		t := &tree{cfg: p.cfg, rng: randx.New(shardSeed(p.seed, call, i, "rng"))}
		t.cfg.Iterations = quotas[i]
		// Every shard root shares the one action list, which nothing writes.
		roots[i] = t.newNode(shardRoots[i])
		roots[i].list(actions)
		t.search(sm, roots[i])
		stats[i] = t.stats
	}
	if workers <= 1 {
		workers = 1
		for i := range quotas {
			runShard(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for t := 0; t < workers; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(quotas) {
						return
					}
					runShard(i)
				}
			}()
		}
		wg.Wait()
	}
	for i, sp := range shardSpans {
		sp.SetNum("rollouts", float64(stats[i].Rollouts)).
			SetNum("nodes", float64(stats[i].Nodes)).
			EndIn(elapsed[i])
	}

	// Only the root edges are merged, in shard-index order, so the float
	// accumulation order — and with it every average and tie-break — is fixed
	// whichever OS thread ran which shard. The roots share one action list,
	// so their edges align by index.
	merged := roots[0]
	for _, r := range roots[1:] {
		for j, se := range r.edges {
			switch de := merged.edges[j]; {
			case se == nil:
			case de == nil:
				merged.edges[j] = se
			default:
				de.visits += se.visits
				de.total += se.total
			}
		}
	}
	ps := PlanStats{RootActions: len(actions), Workers: workers}
	for _, st := range stats {
		ps.Rollouts += st.Rollouts
		ps.Nodes += st.Nodes
		ps.MaxDepth = max(ps.MaxDepth, st.MaxDepth)
	}
	return merged, ps
}
