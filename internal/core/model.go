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
	// documented on Playout to uniform random action selection. It
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

	// sample and mean are the model's two cost.MissFns, made at first use:
	// see priorMiss and meanMiss.
	sample, mean cost.MissFn
	// sim is what the simulation reuses from step to step. Like Rng it makes
	// the model single-goroutine; search shards work on forks.
	sim scratch
}

// scratch is a model's working memory, reused from one playout to the next so
// that a search in steady state plays its rollouts without garbage. Its
// centre is the world: a copy of the tree state a playout starts from, edited
// in place to the end of the query and dead when the playout returns — the
// search keeps none of it. A playout never writes a tree state's store: the
// world's statistics are an overlay of the start state's (laying it at most
// freezes the start state's head, as any Overlay does).
type scratch struct {
	world State
	// price is the overlay the greedy policy prices candidate joins on, laid
	// live on the world's statistics in between two of the world's writes.
	price *stats.Store
	// nodes holds the plan nodes the world is built of, and the leaves the
	// simulation only counts.
	nodes plan.Arena
	joins joinBuf
	dv    cost.Deriver
}

// reset makes the world a copy of s to play in and returns it.
func (sc *scratch) reset(s *State) *State {
	w := &sc.world
	w.Planned = append(w.Planned[:0], s.Planned...)
	w.Active = append(w.Active[:0], s.Active...)
	w.leaves = append(w.leaves[:0], s.leaves...)
	w.full, w.done = s.full, s.done
	if w.St == nil {
		w.St = s.St.Overlay()
		sc.price = w.St.Overlay()
	} else {
		w.St.Rebase(s.St)
	}
	sc.nodes.Reset()
	return w
}

var _ mcts.Model = (*Model)(nil)

// Fork implements mcts.Model: an independent simulator for one search
// shard. The query and prior are immutable and shared; the prior-sampling
// RNG and the scratch — the model's only mutable state — are private to the
// fork, the RNG seeded from seed, so shards step their simulators
// concurrently without touching each other's sample streams.
func (m *Model) Fork(seed int64) mcts.Model {
	return &Model{Q: m.Q, Prior: m.Prior, Rng: randx.New(seed),
		UniformRollout: m.UniformRollout, Profile: m.Profile, Shards: m.Shards}
}

// Legal implements mcts.Model. The actions are handed out as pointers into
// one backing array, so listing them boxes none; the model's actions are
// *Action throughout.
func (m *Model) Legal(s mcts.State) []mcts.Action {
	acts := legalActions(s.(*State), m.Q, &m.sim.joins)
	out := make([]mcts.Action, len(acts))
	for i := range acts {
		out[i] = &acts[i]
	}
	return out
}

// Step implements mcts.Model. It never mutates the input state: a plan edit
// edits a copy of the structure (sharing statistics), EXECUTE also copies the
// frontier and lays a copy-on-write overlay over the statistics, hardening
// the sampled values into that. The returned state's store is written for the
// last time here — every later transition or rollout out of it works on an
// overlay of its own — which is what makes it safe to freeze and share
// beneath them.
func (m *Model) Step(s mcts.State, a mcts.Action) (mcts.State, float64, bool) {
	st := s.(*State)
	act := *a.(*Action)
	if act.Kind != ActExecute {
		ns, err := applyPlanEdit(st, m.Q, act)
		if err != nil {
			panic(err) // planner bug: actions come from legalActions
		}
		return ns, 0, false
	}
	ns := *st // Planned is only read, then settled away
	ns.St = st.St.Overlay()
	ns.ownFrontier()
	reward := -m.execute(&ns, nil)
	ns.Planned = nil // not st's backing array
	return &ns, reward, true
}

// execute is the EXECUTE half of a transition, done in place on s, which must
// own its frontier: every planned tree is priced on s's statistics, the prior
// sampling whatever they lack (the sampled world), Σ trees harden their
// distinct counts, and the frontier settles with leaves from nodes. It
// returns the §4.4 cost of the batch, whose negation is the reward.
func (m *Model) execute(s *State, nodes *plan.Arena) float64 {
	dv := m.deriver(s.St, m.priorMiss())
	total := 0.0
	for _, t := range s.Planned {
		total += dv.PlanCost(t.Tree)
		if t.Tree.Sigma {
			m.simSigma(dv, s, t.Tree)
		}
	}
	settleExecution(s, nodes)
	return total
}

// deriver sets the model's one deriver up over st: the simulation derives a
// step at a time, so a deriver per step would only be garbage.
func (m *Model) deriver(st *stats.Store, miss cost.MissFn) *cost.Deriver {
	m.sim.dv = cost.Deriver{Q: m.Q, St: st, Miss: miss, Profile: m.Profile, Layout: m.Shards}
	return &m.sim.dv
}

// priorMiss adapts the prior to the Deriver's MissFn: the stochastic
// transition samples the hidden world.
func (m *Model) priorMiss() cost.MissFn {
	if m.sample == nil {
		m.sample = func(_ *query.Term, _, _ query.AliasSet, cExpr, cPartner float64) float64 {
			return m.Prior.Sample(m.Rng, cExpr, cPartner)
		}
	}
	return m.sample
}

// meanMiss resolves missing statistics with the prior's expectation. The
// rollout policy must use this, never priorMiss: a blind plan's quality has
// to be evaluated without access to the very statistics the world will only
// reveal at execution, otherwise simulation systematically undervalues Σ
// probes (the policy would be an oracle and information would be worthless).
func (m *Model) meanMiss() cost.MissFn {
	if m.mean == nil {
		m.mean = func(_ *query.Term, _, _ query.AliasSet, cExpr, cPartner float64) float64 {
			return m.Prior.Mean(cExpr, cPartner)
		}
	}
	return m.mean
}

// simSigma simulates the Σ operator: every open join term evaluable over the
// materialized expression gets its distinct count hardened — resolved through
// the same lookup chain the cost model uses (so values already sampled while
// deriving this transition's counts stay consistent) and promoted to a
// measured statistic in the sampled world.
func (m *Model) simSigma(dv *cost.Deriver, ns *State, tree *plan.Node) {
	cover := m.Q.Own(tree.Aliases())
	cE, ok := ns.St.CountOf(cover)
	if !ok {
		cE = dv.NodeCount(tree) // a count is blind to the Σ marker
	}
	for _, p := range m.Q.Joins {
		for ti, t := range []*query.Term{p.L, p.R} {
			if !t.Aliases.SubsetOf(cover) || p.ApplicableAt(cover) {
				continue
			}
			if ns.St.HasMeasuredOf(t.ID, cover) {
				continue
			}
			other := p.R
			if ti == 1 {
				other = p.L
			}
			cP := m.partnerCount(dv, other.Aliases)
			d := dv.Distinct(t, cover, other.Aliases, cE, cP)
			ns.St.SetMeasuredOf(t.ID, cover, d)
		}
	}
}

// partnerCount estimates the cardinality of the minimal expression covering
// a term's aliases, for parameterizing the prior: a known count wins, a
// single alias estimates its filtered scan, a multi-alias set falls back to
// the product of its members' filtered estimates.
func (m *Model) partnerCount(dv *cost.Deriver, aliases query.AliasSet) float64 {
	if c, ok := dv.St.CountOf(aliases); ok {
		return c
	}
	prod := 1.0
	for _, one := range aliases.Singletons() {
		// The leaf is counted, never kept: the scratch arena's will do.
		prod *= dv.NodeCount(m.sim.nodes.Leaf(one))
	}
	return prod
}

// Playout implements mcts.Model with a greedy default policy: finish the
// query with the join order that looks cheapest under the rollout world's
// statistics (hardened values where known, prior samples elsewhere), then
// EXECUTE. Σ actions are never taken during rollouts — the tree policy
// explores them — so a rollout directly prices "commit now with what this
// world knows", which is exactly what makes the value of information visible
// to the search: a subtree below a simulated Σ completes with the hardened
// statistic, a subtree that guessed completes blind. The policy is played from
// s on the model's world, edited in place by the same transition functions
// Step uses, so it takes the same actions with the same draws from rng and
// from the model's Rng as choosing one action at a time and stepping into a
// new state would, and sums the same rewards in the same order.
func (m *Model) Playout(s mcts.State, rng *rand.Rand, steps int) float64 {
	w := m.sim.reset(s.(*State))
	total := 0.0
	for ; steps > 0; steps-- {
		a, ok := m.rolloutAction(w, rng)
		if !ok {
			break
		}
		reward := 0.0
		if a.Kind == ActExecute {
			// Every EXECUTE of the playout hardens into the world's one head,
			// where Step would lay a new overlay per EXECUTE. The two read
			// alike: a lookup finds the newest value either way, and a value
			// this head overwrites is one that Step's layer would shadow.
			reward = -m.execute(w, &m.sim.nodes)
		} else if err := w.edit(a, &m.sim.nodes); err != nil {
			panic(err) // planner bug: the policy picks legal actions
		}
		total += reward
	}
	return total
}

// rolloutAction is the default policy's choice in the world w; false when w
// is terminal or has no legal action.
func (m *Model) rolloutAction(w *State, rng *rand.Rand) (Action, bool) {
	if w.Terminal() {
		return Action{}, false
	}
	if !m.UniformRollout {
		// The greedy policy only ever picks a join or EXECUTE, so it prices
		// the joins directly and skips the Σ-usefulness half of legalActions.
		pairs, _ := m.sim.joins.joinPairs(w, m.Q)
		if len(pairs) > 0 {
			// Priced on an overlay: the derived counts and mean-resolved
			// misses must not leak into the world's statistics.
			m.sim.price.RebaseLive(w.St)
			dv := m.deriver(m.sim.price, m.meanMiss())
			best, bestCount := 0, math.Inf(1)
			for i, p := range pairs {
				if c := dv.NodeCount(m.sim.nodes.Join(p.l, p.r)); c < bestCount {
					best, bestCount = i, c
				}
			}
			if !math.IsInf(bestCount, 1) {
				return pairs[best].action(), true
			}
		}
		if len(w.Planned) > 0 {
			return Action{Kind: ActExecute}, true
		}
	}
	acts := legalActions(w, m.Q, &m.sim.joins)
	if len(acts) == 0 {
		return Action{}, false
	}
	return acts[rng.Intn(len(acts))], true
}
