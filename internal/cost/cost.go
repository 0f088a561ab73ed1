// Package cost implements the paper's statistical model (§4.3) and cost
// recursion (§4.4):
//
//   - join size   c(r1 ⋈ r2) = c(r1)·c(r2) / max(d1, d2)           (eq. 2)
//   - selection   c(σ_{F=k} r) = c(r) / d(F, r)
//   - plan cost   cost(leaf) = c(leaf); cost(j) = c(j) + cost(children);
//     cost(Σ(r)) = c(r) + cost(r)  (statistics collection is one more pass)
//
// PlanCost weights each of these counts by the rate of the physical operator
// the engine runs on it (a CostProfile); nil = the unit profile, which is the
// flat count above.
//
// The Deriver walks a plan tree over a statistics store, deriving every
// missing count exactly like the recursive generation algorithm of §4.3:
// known statistics are used as-is, missing distinct counts are delegated to a
// Miss function — a prior sampler inside the MDP simulator, a default rule
// inside the Defaults optimizer, an estimator inside Sampling, and so on.
// Derived counts are recorded back into the store so one transition stays
// internally consistent.
package cost

import (
	"fmt"
	"math"

	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/stats"
)

// MissFn supplies a distinct count d(term, expr | partner) when the store has
// neither a measured nor an assumed value. cExpr and cPartner are the
// cardinalities of the expression the term is evaluated over and of the
// partner expression — the two parameters every prior in §5.2 is conditioned
// on. The returned value is clamped by the caller to [1, max(cExpr, 1)].
type MissFn func(t *query.Term, expr, partner query.AliasSet, cExpr, cPartner float64) float64

// Deriver derives counts and costs for plan trees over a statistics store.
// The store is mutated (counts recorded, misses recorded as assumed), so
// callers that must not pollute shared state pass an overlay of it. Each
// entry point binds the store to Q's universe (stats.Store.Bind) — a no-op
// once it is — and every lookup after that is by alias-set word.
type Deriver struct {
	Q    *query.Query
	St   *stats.Store
	Miss MissFn
	// Obs, when set, lets optimizers walking this deriver (e.g. opt.BestPlan)
	// record spans; a nil tracer keeps derivation free of any overhead.
	Obs *obs.Tracer
	// Profile holds the per-operator-kind rates PlanCost weights the §4.4
	// object counts by; a calibrated profile makes PlanCost return estimated
	// seconds. Nil = the unit profile: the historical flat object-count
	// model, bit-identical to every pinned golden.
	Profile *CostProfile
}

// Distinct resolves d(term, expr | partner): measured over the expression
// wins, then measured over the term's minimal alias set (a statistic
// collected on a base expression keeps informing joins of its supersets),
// then an assumed value for this partner, then the Miss function. The result
// is clamped to [1, cExpr] and recorded as assumed when freshly missed.
func (dv *Deriver) Distinct(t *query.Term, expr, partner query.AliasSet, cExpr, cPartner float64) float64 {
	dv.bind()
	return dv.distinct(t, expr, partner, cExpr, cPartner)
}

func (dv *Deriver) distinct(t *query.Term, expr, partner query.AliasSet, cExpr, cPartner float64) float64 {
	hi := math.Max(cExpr, 1)
	if d, ok := dv.St.MeasuredOf(t.ID, expr); ok {
		return clamp(d, 1, hi)
	}
	if !t.Aliases.Equal(expr) {
		if d, ok := dv.St.MeasuredOf(t.ID, t.Aliases); ok {
			return clamp(d, 1, hi)
		}
	}
	if d, ok := dv.St.AssumedOf(t.ID, expr, partner); ok {
		return clamp(d, 1, hi)
	}
	d := clamp(dv.Miss(t, expr, partner, cExpr, cPartner), 1, hi)
	dv.St.SetAssumedOf(t.ID, expr, partner, d)
	return d
}

// bind keys the store by the query's universe.
func (dv *Deriver) bind() { dv.St.Bind(dv.Q.Aliases()) }

// NodeCount estimates (or retrieves) the cardinality of a plan node's result,
// following the §4.3 recursion, and records it in the store. It walks the
// query's predicates in place, in query order, which is the order the §4.3
// factors — and the Miss draws behind them — have always come in, over the
// children's alias sets re-expressed in the query's universe, where each
// predicate's NewAt and each term's SubsetOf is word arithmetic on the masks
// Builder.Build fixed (a plan built from NewAliasSet leaves would otherwise
// have every test translate its sets by name).
func (dv *Deriver) NodeCount(n *plan.Node) float64 {
	dv.bind()
	return dv.nodeCount(n)
}

// NodeCounts records NodeCount of every node of tree in out, keyed by
// plan.Node.Key: the estimates an EXPLAIN or an estimate-vs-actual report
// sets beside the engine's observed counts.
func (dv *Deriver) NodeCounts(tree *plan.Node, out map[string]float64) {
	out[tree.Key()] = dv.NodeCount(tree)
	if !tree.IsLeaf() {
		dv.NodeCounts(tree.Left, out)
		dv.NodeCounts(tree.Right, out)
	}
}

func (dv *Deriver) nodeCount(n *plan.Node) float64 {
	e := dv.Q.Own(n.Aliases())
	if c, ok := dv.St.CountOf(e); ok {
		return c
	}
	if n.IsLeaf() {
		return dv.leafCount(e)
	}
	cX := dv.nodeCount(n.Left)
	cY := dv.nodeCount(n.Right)
	xs, ys := dv.Q.Own(n.Left.Aliases()), dv.Q.Own(n.Right.Aliases())
	c := cX * cY
	for _, p := range dv.Q.Joins {
		if !p.NewAt(xs, ys) {
			continue
		}
		lE, lC := dv.container(p.L, xs, ys, cX, cY, e, c)
		rE, rC := dv.container(p.R, xs, ys, cX, cY, e, c)
		dL := dv.distinct(p.L, lE, rE, lC, rC)
		dR := dv.distinct(p.R, rE, lE, rC, lC)
		c /= math.Max(math.Max(dL, dR), 1)
	}
	for _, s := range dv.Q.Sels {
		if !s.NewAt(xs, ys) {
			continue
		}
		d := dv.distinct(s.T, e, e, cX*cY, cX*cY)
		c /= math.Max(d, 1)
	}
	dv.St.SetCountOf(e, c)
	return c
}

// container determines the expression a term is evaluated over at this join:
// the left child, the right child, or — for a multi-table term that only
// becomes evaluable at this join — the joined expression itself (whose
// pre-predicate size is the product of the children).
func (dv *Deriver) container(t *query.Term, xs, ys query.AliasSet, cX, cY float64, union query.AliasSet, cProduct float64) (query.AliasSet, float64) {
	if t.Aliases.SubsetOf(xs) {
		return xs, cX
	}
	if t.Aliases.SubsetOf(ys) {
		return ys, cY
	}
	return union, cProduct
}

// leafCount derives the output size of a leaf. A leaf referencing a
// materialized multi-alias expression must already have a count (the engine
// hardens one at materialization); a single-alias leaf is the stored table
// with its pushed selections, estimated via 1/d per selection. leaf is the
// leaf's alias set, re-expressed over the query's universe.
func (dv *Deriver) leafCount(leaf query.AliasSet) float64 {
	if leaf.Size() != 1 {
		panic(fmt.Sprintf("cost: no count for materialized expression %q", leaf.Key()))
	}
	craw, ok := dv.St.RawCountOf(leaf)
	if !ok {
		panic(fmt.Sprintf("cost: no raw count for base table %q", leaf.Key()))
	}
	c := craw
	for _, s := range dv.Q.Sels {
		if !s.T.Aliases.SubsetOf(leaf) {
			continue
		}
		d := dv.distinct(s.T, leaf, leaf, craw, craw)
		c /= math.Max(d, 1)
	}
	dv.St.SetCountOf(leaf, c)
	return c
}

// PlanCost implements the §4.4 recursion for one tree: every node's objects
// weighted by the Profile rate of the physical operator the engine will run
// on it — scan or reuse at a leaf; at a join, a hash probe plus the build of
// the right child when plan.Node.LeadKey finds a key predicate, else a nested
// loop — then the Σ extra pass and the root materialization. The unit profile
// (a nil Profile) makes this the flat object count: each node's count, plus
// one more pass of the root under Σ.
func (dv *Deriver) PlanCost(n *plan.Node) float64 {
	dv.bind()
	p := dv.Profile
	if p == nil {
		p = unitProfile
	}
	c := dv.nodeCost(p, n)
	if n.Sigma {
		c += p.Sigma.of(dv.nodeCount(n))
	}
	return c + p.Materialize.of(dv.nodeCount(n))
}

// nodeCost adds a node's own terms before its children's, which keeps the
// unit profile's sums in the order of the historical flat model, so its costs
// stay bit-identical. Counts are derived in that model's order too (a child's
// count can be missing under a hardened parent, and each Miss draw advances
// the prior): the node, then the children. The build count a calibrated
// profile prices is read after the right subtree, which has derived it.
func (dv *Deriver) nodeCost(p *CostProfile, n *plan.Node) float64 {
	cnt := dv.nodeCount(n)
	if n.IsLeaf() {
		if n.Leaf.Size() != 1 {
			return p.Reuse.of(cnt)
		}
		return p.Scan.of(cnt)
	}
	bt := dv.leadKey(p, n)
	left, right := dv.nodeCost(p, n.Left), dv.nodeCost(p, n.Right)
	var c float64
	if bt != nil {
		c = p.HashProbe.of(cnt) + p.HashBuild.of(dv.nodeCount(n.Right))
	} else {
		c = p.NestedLoop.of(cnt)
	}
	return c + left + right
}

// leadKey is plan.Node.LeadKey's build term where the answer is priced: the
// profile rates a hash join apart from a nested loop. Otherwise both joins
// cost the same (the unit profile) and the walk over the query's predicates
// is skipped.
func (dv *Deriver) leadKey(p *CostProfile, n *plan.Node) *query.Term {
	if p.HashProbe.SecondsPerObject == p.NestedLoop.SecondsPerObject && p.HashBuild.SecondsPerObject == 0 {
		return nil
	}
	bt, _ := n.LeadKey(dv.Q)
	return bt
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// DefaultMiss returns the "Defaults" rule used when no statistic is
// available: the distinct count of an attribute equals fraction of the row
// count (Postgres-style magic constant; the paper's Defaults option and its
// Discrete prior both use 0.1).
func DefaultMiss(fraction float64) MissFn {
	return func(_ *query.Term, _, _ query.AliasSet, cExpr, _ float64) float64 {
		return fraction * cExpr
	}
}

// PanicMiss panics on any missing statistic; the full-statistics baseline
// uses it to assert that its offline pass really covered everything.
func PanicMiss() MissFn {
	return func(t *query.Term, expr, partner query.AliasSet, _, _ float64) float64 {
		panic(fmt.Sprintf("cost: missing statistic for term %d (%s) over %q partner %q",
			t.ID, t.Fn.Name, expr.Key(), partner.Key()))
	}
}
