// Package opt implements the classical optimizers Monsoon is compared
// against in §6.2.2: a Selinger-style dynamic-programming join enumerator
// over the paper's intermediate-object cost model (the "Postgres" stand-in),
// the size-only Greedy heuristic, and the statistics-collection strategies
// behind the Defaults, On-Demand, and Sampling options.
package opt

import (
	"fmt"
	"math"
	"math/bits"

	"monsoon/internal/cost"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
)

// BestPlan runs bushy dynamic programming over connected alias subsets and
// returns the minimum-cost join tree under the §4.4 cost recursion, resolving
// statistics through dv (whose Miss function defines the optimizer's attitude
// toward missing statistics). Cross products are admitted for a subset only
// when no connected split can cover it. Queries up to 24 relations are
// supported; the benchmarks stay well below that.
func BestPlan(q *query.Query, dv *cost.Deriver) (*plan.Node, error) {
	names := q.Aliases().Names()
	n := len(names)
	sp := dv.Obs.Start(obs.KOptimize, "dp").SetNum("relations", float64(n))
	defer sp.End()
	if n == 0 {
		return nil, fmt.Errorf("opt: query %s has no relations", q.Name)
	}
	if n > 24 {
		return nil, fmt.Errorf("opt: %d relations exceed the DP limit", n)
	}
	full := uint32(1)<<n - 1
	sets := make([]query.AliasSet, full+1)
	trees := make([]*plan.Node, full+1)
	costs := make([]float64, full+1)
	for i := range costs {
		costs[i] = math.Inf(1)
	}
	aliasSetOf := func(mask uint32) query.AliasSet {
		if !sets[mask].IsEmpty() {
			return sets[mask]
		}
		var members []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				members = append(members, names[i])
			}
		}
		sets[mask] = query.NewAliasSet(members...)
		return sets[mask]
	}
	// Leaves.
	for i := 0; i < n; i++ {
		mask := uint32(1) << i
		leaf := plan.NewLeaf(aliasSetOf(mask))
		trees[mask] = leaf
		costs[mask] = dv.NodeCount(leaf)
	}
	// Proper submasks of mask are numerically smaller, so ascending order
	// visits children first. The first pass admits only connected splits;
	// the second (reached only if the subset has no connected cover, e.g.
	// a required cross product) admits everything.
	for mask := uint32(1); mask <= full; mask++ {
		if bits.OnesCount32(mask) < 2 {
			continue
		}
		for _, connectedOnly := range []bool{true, false} {
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				other := mask ^ sub
				if sub > other {
					continue // each unordered split once
				}
				if trees[sub] == nil || trees[other] == nil {
					continue
				}
				a, b := aliasSetOf(sub), aliasSetOf(other)
				if connectedOnly && !q.Connected(a, b) {
					continue
				}
				cand := plan.NewJoin(trees[sub], trees[other])
				c := dv.NodeCount(cand) + costs[sub] + costs[other]
				if c < costs[mask] {
					costs[mask] = c
					trees[mask] = cand
				}
			}
			if trees[mask] != nil {
				break
			}
		}
	}
	if trees[full] == nil {
		sp.SetStr("err", "no plan")
		return nil, fmt.Errorf("opt: no plan found for %s", q.Name)
	}
	sp.SetNum("cost", costs[full]).SetStr("plan", trees[full].String())
	return trees[full], nil
}

// PlanCostOf re-derives the §4.4 cost of an arbitrary tree under dv. Nothing
// calls it yet: it is kept for a harness regret report that prices executed
// plans against the optimum under true cardinalities.
func PlanCostOf(dv *cost.Deriver, tree *plan.Node) float64 {
	return dv.PlanCost(tree)
}
