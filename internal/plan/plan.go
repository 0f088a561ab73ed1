// Package plan defines the join trees the optimizers produce and the engine
// executes. A leaf references an already-materialized expression by its alias
// set (base tables are materialized expressions of one alias); an inner node
// joins its children, applying every predicate that becomes newly applicable;
// a root may carry the Σ statistics-collection marker (§4.2).
package plan

import (
	"strings"

	"monsoon/internal/query"
)

// Node is one node of a join tree.
type Node struct {
	// Leaf is the alias set of the materialized expression this leaf
	// references. Inner nodes leave it empty.
	Leaf query.AliasSet
	// Left and Right are the children of an inner node.
	Left, Right *Node
	// Sigma marks a root whose result is materialized and then scanned a
	// second time to collect distinct-value statistics.
	Sigma bool

	aliases query.AliasSet // cached union
	key     string         // aliases.Key(), read on every statistics lookup
}

// NewLeaf returns a leaf referencing the materialized expression covering s.
func NewLeaf(s query.AliasSet) *Node {
	return &Node{Leaf: s, aliases: s, key: s.Key()}
}

// NewJoin returns an inner node joining two subtrees. The children's alias
// sets must be disjoint; violations panic because they indicate a planner
// bug, not a data condition.
func NewJoin(l, r *Node) *Node {
	if l.Aliases().Intersects(r.Aliases()) {
		panic("plan: joining overlapping alias sets " + l.Aliases().String() + " and " + r.Aliases().String())
	}
	s := l.Aliases().Union(r.Aliases())
	return &Node{Left: l, Right: r, aliases: s, key: s.Key()}
}

// WithSigma returns a copy of the root with the Σ marker set.
func (n *Node) WithSigma() *Node {
	cp := *n
	cp.Sigma = true
	return &cp
}

// WithoutSigma returns a copy of the root with the Σ marker cleared.
func (n *Node) WithoutSigma() *Node {
	cp := *n
	cp.Sigma = false
	return &cp
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil }

// Aliases returns the alias set covered by the subtree.
func (n *Node) Aliases() query.AliasSet { return n.aliases }

// Key returns the canonical identity of the node's *result*: the alias-set
// key (see the query package for why order does not matter for identity).
func (n *Node) Key() string { return n.key }

// String renders the tree structurally, e.g. "Σ((R⋈S)⋈T)"; leaf references to
// materialized intermediates render as their alias-set key in brackets.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, true)
	return b.String()
}

func (n *Node) render(b *strings.Builder, root bool) {
	if root && n.Sigma {
		b.WriteString("Σ(")
		defer b.WriteString(")")
	}
	if n.IsLeaf() {
		if n.Leaf.Size() == 1 {
			b.WriteString(n.Leaf.Names()[0])
		} else {
			b.WriteString("[" + n.Leaf.Key() + "]")
		}
		return
	}
	b.WriteString("(")
	n.Left.render(b, false)
	b.WriteString("⋈")
	n.Right.render(b, false)
	b.WriteString(")")
}

// Leaves appends the leaves of the subtree, left to right.
func (n *Node) Leaves() []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(x *Node) {
		if x.IsLeaf() {
			out = append(out, x)
			return
		}
		walk(x.Left)
		walk(x.Right)
	}
	walk(n)
	return out
}

// LeftDeep builds the left-deep tree ((l0 ⋈ l1) ⋈ l2) ⋈ ... from leaves given
// as alias sets, in order. It panics on an empty input.
func LeftDeep(leaves []query.AliasSet) *Node {
	if len(leaves) == 0 {
		panic("plan: LeftDeep over no leaves")
	}
	cur := NewLeaf(leaves[0])
	for _, l := range leaves[1:] {
		cur = NewJoin(cur, NewLeaf(l))
	}
	return cur
}

// Equal reports structural equality, including Σ markers.
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if n.Sigma != o.Sigma || n.IsLeaf() != o.IsLeaf() {
		return false
	}
	if n.IsLeaf() {
		return n.Leaf.Equal(o.Leaf)
	}
	return n.Left.Equal(o.Left) && n.Right.Equal(o.Right)
}
