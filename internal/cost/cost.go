// Package cost implements the paper's statistical model (§4.3) and cost
// recursion (§4.4):
//
//   - join size   c(r1 ⋈ r2) = c(r1)·c(r2) / max(d1, d2)           (eq. 2)
//   - selection   c(σ_{F=k} r) = c(r) / d(F, r)
//   - plan cost   cost(leaf) = c(leaf); cost(j) = c(j) + cost(children);
//     cost(Σ(r)) = c(r) + cost(r)  (statistics collection is one more pass)
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
	"strings"

	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/stats"
)

// JoinSize evaluates eq. (2) with the generalization used throughout the
// repository: every additional predicate applied at the same join contributes
// an independent 1/max(d1,d2) factor (callers divide repeatedly).
func JoinSize(c1, c2, d1, d2 float64) float64 {
	return c1 * c2 / math.Max(math.Max(d1, d2), 1)
}

// SelSize is the classical selectivity c/d for an equality selection.
func SelSize(c, d float64) float64 {
	return c / math.Max(d, 1)
}

// MissFn supplies a distinct count d(term, expr | partner) when the store has
// neither a measured nor an assumed value. cExpr and cPartner are the
// cardinalities of the expression the term is evaluated over and of the
// partner expression — the two parameters every prior in §5.2 is conditioned
// on. The returned value is clamped by the caller to [1, max(cExpr, 1)].
type MissFn func(t *query.Term, exprKey, partnerKey string, cExpr, cPartner float64) float64

// Deriver derives counts and costs for plan trees over a statistics store.
// The store is mutated (counts recorded, misses recorded as assumed), so
// callers that must not pollute shared state pass an overlay of it.
type Deriver struct {
	Q    *query.Query
	St   *stats.Store
	Miss MissFn
	// Obs, when set, lets optimizers walking this deriver (e.g. opt.BestPlan)
	// record spans; a nil tracer keeps derivation free of any overhead.
	Obs *obs.Tracer
	// Profile, when set, converts the §4.4 object counts into estimated
	// seconds with calibrated per-operator-kind rates (PlanCost/BatchCost
	// return seconds instead of objects). Nil keeps the historical flat
	// object-count model, bit-identical to every pinned golden.
	Profile *CostProfile
	// Layout, when set to a sharded layout (ShardCount > 1), adds the
	// exchange movement term: a hash build whose child is not co-partitioned
	// with the storage layout reshuffles every build row. The flat model
	// charges the moved objects; a calibrated profile prices them at the
	// Exchange rate. A nil or unsharded layout changes nothing, so every
	// pre-sharding cost stays bit-identical.
	Layout ShardLayout
}

// ShardLayout is the planner's read-only view of the storage layer's hash
// shard layout. *table.Catalog implements it; the interface keeps the cost
// model decoupled from storage and lets tests fake layouts directly.
type ShardLayout interface {
	// ShardCount reports the layout width; 1 (or less) means unsharded.
	ShardCount() int
	// ShardKey reports the qualified column a stored table is partitioned
	// on, or false when the layout does not cover the table.
	ShardKey(table string) (string, bool)
}

// Distinct resolves d(term, expr | partner): measured over the expression
// wins, then measured over the term's minimal alias set (a statistic
// collected on a base expression keeps informing joins of its supersets),
// then an assumed value for this partner, then the Miss function. The result
// is clamped to [1, cExpr] and recorded as assumed when freshly missed.
func (dv *Deriver) Distinct(t *query.Term, exprKey, partnerKey string, cExpr, cPartner float64) float64 {
	hi := math.Max(cExpr, 1)
	if d, ok := dv.St.Measured(t.ID, exprKey); ok {
		return clamp(d, 1, hi)
	}
	if minKey := t.Aliases.Key(); minKey != exprKey {
		if d, ok := dv.St.Measured(t.ID, minKey); ok {
			return clamp(d, 1, hi)
		}
	}
	if d, ok := dv.St.Distinct(t.ID, exprKey, partnerKey); ok {
		return clamp(d, 1, hi)
	}
	d := clamp(dv.Miss(t, exprKey, partnerKey, cExpr, cPartner), 1, hi)
	dv.St.SetAssumed(t.ID, exprKey, partnerKey, d)
	return d
}

// NodeCount estimates (or retrieves) the cardinality of a plan node's result,
// following the §4.3 recursion, and records it in the store.
func (dv *Deriver) NodeCount(n *plan.Node) float64 {
	key := n.Key()
	if c, ok := dv.St.Count(key); ok {
		return c
	}
	if n.IsLeaf() {
		return dv.leafCount(n, key)
	}
	cX := dv.NodeCount(n.Left)
	cY := dv.NodeCount(n.Right)
	xs, ys := n.Left.Aliases(), n.Right.Aliases()
	c := cX * cY
	for _, p := range dv.Q.PredsNewAt(xs, ys) {
		lKey, lC := dv.container(p.L, xs, ys, cX, cY, key, c)
		rKey, rC := dv.container(p.R, xs, ys, cX, cY, key, c)
		dL := dv.Distinct(p.L, lKey, rKey, lC, rC)
		dR := dv.Distinct(p.R, rKey, lKey, rC, lC)
		c /= math.Max(math.Max(dL, dR), 1)
	}
	for _, s := range dv.Q.SelsNewAt(xs, ys) {
		d := dv.Distinct(s.T, key, key, cX*cY, cX*cY)
		c /= math.Max(d, 1)
	}
	dv.St.SetCount(key, c)
	return c
}

// container determines the expression a term is evaluated over at this join:
// the left child, the right child, or — for a multi-table term that only
// becomes evaluable at this join — the joined expression itself (whose
// pre-predicate size is the product of the children).
func (dv *Deriver) container(t *query.Term, xs, ys query.AliasSet, cX, cY float64, unionKey string, cProduct float64) (string, float64) {
	if t.Aliases.SubsetOf(xs) {
		return xs.Key(), cX
	}
	if t.Aliases.SubsetOf(ys) {
		return ys.Key(), cY
	}
	return unionKey, cProduct
}

// leafCount derives the output size of a leaf. A leaf referencing a
// materialized multi-alias expression must already have a count (the engine
// hardens one at materialization); a single-alias leaf is the stored table
// with its pushed selections, estimated via 1/d per selection.
func (dv *Deriver) leafCount(n *plan.Node, key string) float64 {
	if n.Leaf.Size() != 1 {
		panic(fmt.Sprintf("cost: no count for materialized expression %q", key))
	}
	alias := n.Leaf.Names()[0]
	craw, ok := dv.St.Count(stats.RawKey(alias))
	if !ok {
		panic(fmt.Sprintf("cost: no raw count for base table %q", alias))
	}
	c := craw
	for _, s := range dv.Q.SelsAt(n.Leaf) {
		d := dv.Distinct(s.T, key, key, craw, craw)
		c /= math.Max(d, 1)
	}
	dv.St.SetCount(key, c)
	return c
}

// PlanCost implements the §4.4 recursion for one tree: every node contributes
// the number of objects it produces, and a Σ top contributes one extra pass
// over the materialized result. With a Profile attached the same recursion
// runs weighted by calibrated per-operator-kind seconds-per-object rates and
// the result is estimated seconds (see profile.go).
func (dv *Deriver) PlanCost(n *plan.Node) float64 {
	if dv.Profile != nil {
		return dv.profiledPlanCost(n)
	}
	c := dv.nodeCost(n)
	if n.Sigma {
		c += dv.NodeCount(n)
	}
	return c
}

func (dv *Deriver) nodeCost(n *plan.Node) float64 {
	c := dv.NodeCount(n)
	if n.IsLeaf() {
		return c
	}
	c += dv.exchangeObjects(n)
	return c + dv.nodeCost(n.Left) + dv.nodeCost(n.Right)
}

// exchangeObjects estimates the rows a join must move across shard
// boundaries under the current layout: a hash build whose child is not
// co-partitioned with the storage shards reshuffles its entire build input.
// Zero when the layout is unsharded, the join degenerates to a nested loop,
// or the build side is a shard-local scan. One known imprecision: the model
// cannot see the engine's materialized-intermediate store, so a single-alias
// leaf that will actually be served from the reuse path (and therefore
// reshuffled) is still priced shard-local here.
func (dv *Deriver) exchangeObjects(n *plan.Node) float64 {
	if dv.Layout == nil || dv.Layout.ShardCount() <= 1 || n.IsLeaf() {
		return 0
	}
	bt := dv.buildTermAt(n)
	if bt == nil || dv.coPartitioned(n.Right, bt) {
		return 0
	}
	return dv.NodeCount(n.Right)
}

// buildTermAt mirrors the engine's join strategy choice: the first predicate
// that splits the children drives a hash join with the right child as the
// build side; with no such predicate the join is a nested loop. Returns the
// right-side term of that predicate, or nil for a nested loop.
func (dv *Deriver) buildTermAt(n *plan.Node) *query.Term {
	xs, ys := n.Left.Aliases(), n.Right.Aliases()
	for _, p := range dv.Q.PredsNewAt(xs, ys) {
		if bt := buildSideOf(p, xs, ys); bt != nil {
			return bt
		}
	}
	return nil
}

// buildSideOf returns the term of p that binds wholly on the right child ys
// when the other binds wholly on the left child xs — the engine's test for a
// key predicate — and nil when p does not separate the children.
func buildSideOf(p *query.JoinPred, xs, ys query.AliasSet) *query.Term {
	if p.L.Aliases.SubsetOf(xs) && p.R.Aliases.SubsetOf(ys) {
		return p.R
	}
	if p.R.Aliases.SubsetOf(xs) && p.L.Aliases.SubsetOf(ys) {
		return p.L
	}
	return nil
}

// coPartitioned reports whether a build child's rows already arrive grouped
// by the join key's storage shard: the child is an unmaterialized single
// base table and the build term is the identity of the column the layout
// shards that table on.
func (dv *Deriver) coPartitioned(n *plan.Node, bt *query.Term) bool {
	if !n.IsLeaf() || n.Leaf.Size() != 1 {
		return false
	}
	alias := n.Leaf.Names()[0]
	tbl, ok := dv.Q.TableOf(alias)
	if !ok {
		return false
	}
	key, ok := dv.Layout.ShardKey(tbl)
	if !ok {
		return false
	}
	fn := bt.Fn
	return fn.Name == "id" && len(fn.Args) == 1 && fn.Args[0] == alias+colSuffix(key)
}

// colSuffix turns the layout's base-qualified shard key ("lineitem.l_orderkey")
// into the ".column" suffix an alias-qualified term argument would end with.
func colSuffix(key string) string {
	if i := strings.IndexByte(key, '.'); i >= 0 {
		return key[i:]
	}
	return "." + key
}

// BatchCost sums PlanCost over a set of trees (one EXECUTE transition, §4.4's
// Σ_{r∈Rp} cost(r)).
func (dv *Deriver) BatchCost(trees []*plan.Node) float64 {
	total := 0.0
	for _, t := range trees {
		total += dv.PlanCost(t)
	}
	return total
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
	return func(_ *query.Term, _, _ string, cExpr, _ float64) float64 {
		return fraction * cExpr
	}
}

// PanicMiss panics on any missing statistic; the full-statistics baseline
// uses it to assert that its offline pass really covered everything.
func PanicMiss() MissFn {
	return func(t *query.Term, exprKey, partnerKey string, _, _ float64) float64 {
		panic(fmt.Sprintf("cost: missing statistic for term %d (%s) over %q partner %q",
			t.ID, t.Fn.Name, exprKey, partnerKey))
	}
}
