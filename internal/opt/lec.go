package opt

import (
	"fmt"
	"math"
	"math/rand"

	"monsoon/internal/cost"
	"monsoon/internal/plan"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/stats"
)

// LECPlan implements least-expected-cost optimization (Chu et al., the
// "classical notion" §2.3 contrasts Monsoon against): model the unknown
// distinct counts with the same prior Monsoon uses, but commit — once, up
// front, with no statistics collection and no re-planning — to the single
// plan whose *expected* cost under the prior is minimal.
//
// The expectation is estimated by Monte Carlo: `worlds` complete statistic
// assignments are sampled from the prior; each world's DP-optimal plan
// enters the candidate set; every candidate is then costed in every world
// and the lowest-mean candidate wins. §2.3 explains why this can be
// arbitrarily worse than multi-step execution: when two plans have equal
// expected cost but opposite worst cases, LEC cannot hedge by measuring.
func LECPlan(q *query.Query, base *stats.Store, p prior.Prior, worlds int, rng *rand.Rand) (*plan.Node, error) {
	if worlds <= 0 {
		worlds = 32
	}
	type world struct{ st *stats.Store }
	ws := make([]world, worlds)
	candidates := map[string]*plan.Node{}
	for i := range ws {
		// Sampling through the Deriver records every draw in the world's
		// store, so later candidate costing in the same world stays
		// consistent with the DP that ran there.
		st := base.Clone()
		dv := &cost.Deriver{Q: q, St: st, Miss: priorMiss(p, rng)}
		tree, err := BestPlan(q, dv)
		if err != nil {
			return nil, fmt.Errorf("opt: LEC world %d: %w", i, err)
		}
		ws[i] = world{st: st}
		candidates[tree.String()] = tree
	}
	var best *plan.Node
	bestMean := math.Inf(1)
	for _, cand := range candidates {
		total := 0.0
		for _, w := range ws {
			dv := &cost.Deriver{Q: q, St: w.st, Miss: priorMiss(p, rng)}
			total += dv.PlanCost(cand)
		}
		if mean := total / float64(worlds); mean < bestMean {
			bestMean = mean
			best = cand
		}
	}
	if best == nil {
		return nil, fmt.Errorf("opt: LEC produced no candidates for %s", q.Name)
	}
	return best, nil
}

func priorMiss(p prior.Prior, rng *rand.Rand) cost.MissFn {
	return func(_ *query.Term, _, _ query.AliasSet, cExpr, cPartner float64) float64 {
		return p.Sample(rng, cExpr, cPartner)
	}
}
