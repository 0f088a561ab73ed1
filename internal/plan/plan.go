// Package plan defines the join trees the optimizers produce and the engine
// executes. A leaf references an already-materialized expression by its alias
// set (base tables are materialized expressions of one alias); an inner node
// joins its children, applying every predicate that becomes newly applicable;
// a root may carry the Σ statistics-collection marker (§4.2).
package plan

import (
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
	key     string         // aliases.Key(): the expression's name in actions and the engine
}

// NewLeaf returns a leaf referencing the materialized expression covering s.
func NewLeaf(s query.AliasSet) *Node { return (*Arena)(nil).Leaf(s) }

// NewJoin returns an inner node joining two subtrees. The children's alias
// sets must be disjoint; violations panic because they indicate a planner
// bug, not a data condition.
func NewJoin(l, r *Node) *Node { return (*Arena)(nil).Join(l, r) }

// WithSigma returns a copy of the root with the Σ marker set.
func (n *Node) WithSigma() *Node { return (*Arena)(nil).WithSigma(n) }

// Arena hands out nodes from a slab it reuses: every node it made is dead
// after Reset. A simulator that builds throwaway trees step after step takes
// their nodes from one Arena; the nil *Arena allocates each node on its own,
// for trees that outlive the step (NewLeaf, NewJoin).
type Arena struct{ slab []Node }

// Reset recycles every node the arena made. The caller must hold none.
func (a *Arena) Reset() { a.slab = a.slab[:0] }

func (a *Arena) alloc() *Node {
	if a == nil {
		return new(Node)
	}
	if len(a.slab) == cap(a.slab) {
		// A full slab is replaced, not grown: the nodes made since Reset
		// still point into it.
		a.slab = make([]Node, 0, max(16, 2*cap(a.slab)))
	}
	a.slab = a.slab[:len(a.slab)+1]
	n := &a.slab[len(a.slab)-1]
	*n = Node{}
	return n
}

// Leaf is NewLeaf with the node taken from the arena.
func (a *Arena) Leaf(s query.AliasSet) *Node {
	n := a.alloc()
	n.Leaf, n.aliases, n.key = s, s, s.Key()
	return n
}

// Join is NewJoin with the node taken from the arena.
func (a *Arena) Join(l, r *Node) *Node {
	if l.Aliases().Intersects(r.Aliases()) {
		panic("plan: joining overlapping alias sets " + l.Aliases().String() + " and " + r.Aliases().String())
	}
	s := l.Aliases().Union(r.Aliases())
	n := a.alloc()
	n.Left, n.Right, n.aliases, n.key = l, r, s, s.Key()
	return n
}

// WithSigma is Node.WithSigma with the copy taken from the arena.
func (a *Arena) WithSigma(n *Node) *Node {
	c := a.alloc()
	*c = *n
	c.Sigma = true
	return c
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
func (n *Node) String() string { return string(n.AppendString(nil)) }

// AppendString appends String's bytes to b.
func (n *Node) AppendString(b []byte) []byte {
	if n.Sigma {
		b = append(b, "Σ("...)
		return append(n.render(b), ')')
	}
	return n.render(b)
}

// render appends the tree without Σ markers: only a root's is rendered.
func (n *Node) render(b []byte) []byte {
	if n.IsLeaf() {
		if n.Leaf.Size() == 1 {
			return append(b, n.Leaf.Names()[0]...)
		}
		b = append(b, '[')
		b = append(b, n.Leaf.Key()...)
		return append(b, ']')
	}
	b = append(b, '(')
	b = n.Left.render(b)
	b = append(b, "⋈"...)
	b = n.Right.render(b)
	return append(b, ')')
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

// KeyTerms is the physical-join rule the engine runs and the cost model
// prices, for one predicate p new at join n: p is a key predicate when its two
// terms bind wholly on opposite children. The right child builds the hash
// table, so build is the term over it and probe the term over the left child,
// which streams: its cardinality is unknown until drained. A predicate that
// does not separate the children reports false; it is a residual, decided on
// the joined row. Of the key predicates new at a join, the first in query
// order leads: the table is keyed, routed and co-partitioned on it (LeadKey).
// With none the join is a nested loop.
func (n *Node) KeyTerms(p *query.JoinPred) (probe, build *query.Term, ok bool) {
	l, r := n.Left.Aliases(), n.Right.Aliases()
	switch {
	case p.L.Aliases.SubsetOf(l) && p.R.Aliases.SubsetOf(r):
		return p.L, p.R, true
	case p.L.Aliases.SubsetOf(r) && p.R.Aliases.SubsetOf(l):
		return p.R, p.L, true
	}
	return nil, nil, false
}

// LeadKey applies KeyTerms to q's join predicates in query order: build is the
// leading key predicate's build term, nil for a nested loop, and keys counts
// the key predicates at n. A key predicate is always new at its join (both
// sides are non-empty and the children disjoint), so the walk reads q.Joins
// directly and allocates nothing.
func (n *Node) LeadKey(q *query.Query) (build *query.Term, keys int) {
	for _, p := range q.Joins {
		if _, b, ok := n.KeyTerms(p); ok {
			if keys == 0 {
				build = b
			}
			keys++
		}
	}
	return build, keys
}

// ShardKeys is the storage layout as the join rule reads it: the bare column
// (no table qualifier) a stored table is hash-sharded on, or false when the
// layout does not cover the table.
type ShardKeys interface {
	ShardKey(table string) (col string, ok bool)
}

// ShardLocal is the join rule for a hash build's exchange: build leaf n is
// served by the storage layout, and builds shard-local with no row moved,
// when it is a single-alias leaf whose build term is id(alias.col) for the
// column its table is sharded on. It returns the leaf's table. Whether the
// leaf is really scanned from storage, rather than reused from a
// materialized intermediate, is for the caller to know.
func (n *Node) ShardLocal(q *query.Query, build *query.Term, layout ShardKeys) (string, bool) {
	if !n.IsLeaf() || n.Leaf.Size() != 1 {
		return "", false
	}
	alias := n.Leaf.Names()[0]
	tbl, ok := q.TableOf(alias)
	if !ok {
		return "", false
	}
	col, ok := layout.ShardKey(tbl)
	fn := build.Fn
	return tbl, ok && fn.Name == "id" && len(fn.Args) == 1 && fn.Args[0] == alias+"."+col
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
