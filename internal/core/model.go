package core

import (
	"math"
	"math/rand"

	"monsoon/internal/cost"
	"monsoon/internal/mcts"
	"monsoon/internal/plan"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/stats"
)

// Model is the MDP simulator MCTS plans against (§4.3). Plan edits transition
// deterministically; EXECUTE samples every missing statistic from the prior,
// derives the resulting cardinalities with the recursive generation
// algorithm, and returns the negated §4.4 cost as reward.
type Model struct {
	Q     *query.Query
	Prior prior.Prior
	Rng   *rand.Rand
	// UniformRollout switches the default policy from the greedy completion
	// documented on RolloutAction to uniform random action selection. It
	// exists for the ablation experiment: uniform rollouts hide the value of
	// information from shallow searches.
	UniformRollout bool
	// Profile, when non-nil, makes EXECUTE's reward the negated calibrated
	// plan cost (seconds) instead of the flat §4.4 object count; the rollout
	// policy's greedy join ordering still compares cardinalities, which the
	// calibration leaves untouched.
	Profile *cost.CostProfile
	// Shards exposes the catalog's shard layout to EXECUTE's cost deriver, so
	// the search prices a reshuffled hash build above a co-partitioned one and
	// the reshuffle-vs-local choice becomes a real action trade-off. Nil (or
	// an unsharded layout) keeps simulation bit-identical to pre-sharding.
	Shards cost.ShardLayout

	// scratch is the overlay RolloutAction prices joins on, rebased onto the
	// state's statistics at every call instead of being made anew. Like Rng it
	// makes the model single-goroutine; search shards work on forks.
	scratch *stats.Store
}

var (
	_ mcts.Model        = (*Model)(nil)
	_ mcts.RolloutModel = (*Model)(nil)
	_ mcts.Forker       = (*Model)(nil)
)

// Fork implements mcts.Forker: an independent simulator for one search
// shard. The query and prior are immutable and shared; the prior-sampling
// RNG — the model's only mutable state — is private to the fork, seeded from
// seed, so shards step their simulators concurrently without touching each
// other's sample streams.
func (m *Model) Fork(seed int64) mcts.Model {
	return &Model{Q: m.Q, Prior: m.Prior, Rng: randx.New(seed),
		UniformRollout: m.UniformRollout, Profile: m.Profile, Shards: m.Shards}
}

// Legal implements mcts.Model.
func (m *Model) Legal(s mcts.State) []mcts.Action {
	acts := legalActions(s.(*State), m.Q)
	out := make([]mcts.Action, len(acts))
	for i, a := range acts {
		out[i] = a
	}
	return out
}

// Step implements mcts.Model. It never mutates the input state: plan edits
// copy the structure (sharing statistics), EXECUTE also lays a copy-on-write
// overlay over the statistics and hardens the sampled values into that. The
// returned state's store is written for the last time here — every later
// transition or rollout step out of it works on an overlay of its own — which
// is what makes it safe to freeze and share beneath them.
func (m *Model) Step(s mcts.State, a mcts.Action) (mcts.State, float64, bool) {
	st := s.(*State)
	act := a.(Action)
	if act.Kind != ActExecute {
		ns, err := applyPlanEdit(st, m.Q, act)
		if err != nil {
			panic(err) // planner bug: actions come from legalActions
		}
		return ns, 0, false
	}
	ns := st.clone(true)
	dv := &cost.Deriver{Q: m.Q, St: ns.St, Miss: m.priorMiss(), Profile: m.Profile, Layout: m.Shards}
	total := 0.0
	for _, t := range ns.Planned {
		total += dv.PlanCost(t.Tree)
		if t.Tree.Sigma {
			m.simSigma(dv, ns, t.Tree)
		}
	}
	settleExecution(ns)
	return ns, -total, true
}

// priorMiss adapts the prior to the Deriver's MissFn: the stochastic
// transition samples the hidden world.
func (m *Model) priorMiss() cost.MissFn {
	return func(_ *query.Term, _, _ string, cExpr, cPartner float64) float64 {
		return m.Prior.Sample(m.Rng, cExpr, cPartner)
	}
}

// meanMiss resolves missing statistics with the prior's expectation. The
// rollout policy must use this, never priorMiss: a blind plan's quality has
// to be evaluated without access to the very statistics the world will only
// reveal at execution, otherwise simulation systematically undervalues Σ
// probes (the policy would be an oracle and information would be worthless).
func (m *Model) meanMiss() cost.MissFn {
	return func(_ *query.Term, _, _ string, cExpr, cPartner float64) float64 {
		return m.Prior.Mean(cExpr, cPartner)
	}
}

// simSigma simulates the Σ operator: every open join term evaluable over the
// materialized expression gets its distinct count hardened — resolved through
// the same lookup chain the cost model uses (so values already sampled while
// deriving this transition's counts stay consistent) and promoted to a
// measured statistic in the sampled world.
func (m *Model) simSigma(dv *cost.Deriver, ns *State, tree *plan.Node) {
	cover := tree.Aliases()
	key := tree.Key()
	cE, ok := ns.St.Count(key)
	if !ok {
		cE = dv.NodeCount(tree.WithoutSigma())
	}
	for _, p := range m.Q.Joins {
		for ti, t := range []*query.Term{p.L, p.R} {
			if !t.Aliases.SubsetOf(cover) || p.ApplicableAt(cover) {
				continue
			}
			if ns.St.HasMeasured(t.ID, key) {
				continue
			}
			other := p.R
			if ti == 1 {
				other = p.L
			}
			pKey := other.Aliases.Key()
			cP := m.partnerCount(dv, other.Aliases)
			d := dv.Distinct(t, key, pKey, cE, cP)
			ns.St.SetMeasured(t.ID, key, d)
		}
	}
}

// partnerCount estimates the cardinality of the minimal expression covering
// a term's aliases, for parameterizing the prior: a known count wins, a
// single alias estimates its filtered scan, a multi-alias set falls back to
// the product of its members' filtered estimates.
func (m *Model) partnerCount(dv *cost.Deriver, aliases query.AliasSet) float64 {
	if c, ok := dv.St.Count(aliases.Key()); ok {
		return c
	}
	prod := 1.0
	for _, one := range aliases.Singletons() {
		prod *= dv.NodeCount(plan.NewLeaf(one))
	}
	return prod
}

// RolloutAction implements mcts.RolloutModel with a greedy default policy:
// finish the query with the join order that looks cheapest under the rollout
// world's statistics (hardened values where known, prior samples elsewhere),
// then EXECUTE. Σ actions are never taken during rollouts — the tree policy
// explores them — so a rollout directly prices "commit now with what this
// world knows", which is exactly what makes the value of information visible
// to the search: a subtree below a simulated Σ completes with the hardened
// statistic, a subtree that guessed completes blind.
func (m *Model) RolloutAction(s mcts.State, rng *rand.Rand) mcts.Action {
	st := s.(*State)
	if st.Terminal() {
		return nil
	}
	if !m.UniformRollout {
		// The greedy policy only ever picks a join or EXECUTE, so it prices
		// the joins directly and skips the Σ-usefulness half of legalActions.
		pairs, _ := joinPairs(st, m.Q)
		if len(pairs) > 0 {
			// Priced on an overlay: the derived counts and mean-resolved
			// misses must not leak into the state's statistics.
			if m.scratch == nil {
				m.scratch = st.St.Overlay()
			} else {
				m.scratch.Rebase(st.St)
			}
			dv := &cost.Deriver{Q: m.Q, St: m.scratch, Miss: m.meanMiss()}
			best, bestCount := 0, math.Inf(1)
			for i, p := range pairs {
				if c := dv.NodeCount(plan.NewJoin(p.l, p.r)); c < bestCount {
					best, bestCount = i, c
				}
			}
			if !math.IsInf(bestCount, 1) {
				return pairs[best].action()
			}
		}
		if len(st.Planned) > 0 {
			return Action{Kind: ActExecute}
		}
	}
	acts := legalActions(st, m.Q)
	if len(acts) == 0 {
		return nil
	}
	return acts[rng.Intn(len(acts))]
}
