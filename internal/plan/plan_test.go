package plan

import (
	"testing"

	"monsoon/internal/expr"
	"monsoon/internal/query"
)

func l(names ...string) *Node { return NewLeaf(query.NewAliasSet(names...)) }

func TestLeafAndJoin(t *testing.T) {
	r, s := l("R"), l("S")
	j := NewJoin(r, s)
	if !r.IsLeaf() || j.IsLeaf() {
		t.Error("IsLeaf wrong")
	}
	if j.Aliases().Key() != "R+S" || j.Key() != "R+S" {
		t.Errorf("join key = %q", j.Key())
	}
	if r.Key() != "R" {
		t.Errorf("leaf key = %q", r.Key())
	}
}

func TestJoinOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overlapping join must panic")
		}
	}()
	NewJoin(l("R", "S"), l("S"))
}

func TestSigmaCopies(t *testing.T) {
	n := l("S")
	sig := n.WithSigma()
	if !sig.Sigma || n.Sigma {
		t.Error("WithSigma must copy, not mutate")
	}
	back := sig.WithoutSigma()
	if back.Sigma {
		t.Error("WithoutSigma failed")
	}
	if sig.Key() != n.Key() {
		t.Error("Σ must not change result identity")
	}
}

func TestString(t *testing.T) {
	tree := NewJoin(NewJoin(l("R"), l("S")), l("T"))
	if got := tree.String(); got != "((R⋈S)⋈T)" {
		t.Errorf("String = %q", got)
	}
	if got := tree.WithSigma().String(); got != "Σ(((R⋈S)⋈T))" {
		t.Errorf("Σ String = %q", got)
	}
	if got := NewJoin(l("R", "S"), l("T")).String(); got != "([R+S]⋈T)" {
		t.Errorf("materialized leaf String = %q", got)
	}
	if got := string(tree.WithSigma().AppendString([]byte("k;"))); got != "k;Σ(((R⋈S)⋈T))" {
		t.Errorf("AppendString = %q", got)
	}
}

// TestArena: an arena's nodes are the ones NewLeaf, NewJoin and WithSigma
// make, and once it has grown, Reset recycles them without allocating.
func TestArena(t *testing.T) {
	// One universe, as a query's sets share: a union is then one word.
	one := query.NewAliasSet("R", "S", "T", "U").Singletons()
	sets := []query.AliasSet{one[0].Union(one[1]), one[2], one[3]}
	build := func(a *Arena) *Node {
		return a.WithSigma(a.Join(a.Join(a.Leaf(sets[0]), a.Leaf(sets[1])), a.Leaf(sets[2])))
	}
	want := build(nil)
	var a Arena
	for i := 0; i < 20; i++ { // outgrows the first slab
		got := build(&a)
		if !got.Equal(want) || got.Key() != want.Key() || got.String() != want.String() {
			t.Fatalf("arena tree %s (%s), heap tree %s (%s)", got, got.Key(), want, want.Key())
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		a.Reset()
		for i := 0; i < 20; i++ {
			build(&a)
		}
	}); n != 0 {
		t.Errorf("a grown arena allocates %v objects per reuse, want 0", n)
	}
}

func TestLeaves(t *testing.T) {
	tree := NewJoin(NewJoin(l("R"), l("S")), l("T"))
	leaves := tree.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	want := []string{"R", "S", "T"}
	for i, lf := range leaves {
		if lf.Key() != want[i] {
			t.Errorf("leaf %d = %q, want %q", i, lf.Key(), want[i])
		}
	}
}

func TestLeftDeep(t *testing.T) {
	tree := LeftDeep([]query.AliasSet{
		query.NewAliasSet("A"), query.NewAliasSet("B"), query.NewAliasSet("C"),
	})
	if tree.String() != "((A⋈B)⋈C)" {
		t.Errorf("LeftDeep = %q", tree.String())
	}
	single := LeftDeep([]query.AliasSet{query.NewAliasSet("A")})
	if !single.IsLeaf() {
		t.Error("single-leaf LeftDeep should be a leaf")
	}
}

func TestLeftDeepEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LeftDeep(nil) must panic")
		}
	}()
	LeftDeep(nil)
}

func TestEqual(t *testing.T) {
	a := NewJoin(l("R"), l("S"))
	b := NewJoin(l("R"), l("S"))
	c := NewJoin(l("S"), l("R"))
	if !a.Equal(b) {
		t.Error("identical trees must be Equal")
	}
	if a.Equal(c) {
		t.Error("Equal is structural; swapped children differ")
	}
	if a.Equal(a.WithSigma()) {
		t.Error("Σ marker must matter for Equal")
	}
	if a.Equal(nil) {
		t.Error("non-nil != nil")
	}
	var n *Node
	if !n.Equal(nil) {
		t.Error("nil == nil")
	}
	if a.Equal(l("R")) {
		t.Error("join != leaf")
	}
}

type shardCols map[string]string

func (s shardCols) ShardKey(table string) (string, bool) {
	c, ok := s[table]
	return c, ok
}

// TestKeyTermsRule pins the physical-join rule: a predicate whose terms bind
// on opposite children is a key predicate, probed from the left and built on
// the right whichever way it is written; the first leads; and a build leaf is
// shard-local only on the identity of its table's shard column.
func TestKeyTermsRule(t *testing.T) {
	q := query.NewBuilder("rule").Rel("r", "R").Rel("s", "S").Rel("u", "U").
		Join(expr.SumMod("r.a", "u.a", 3), expr.Identity("s.a")). // reads both children of (r ⋈ s) ⋈ u
		Join(expr.Identity("s.k"), expr.Identity("r.k")).
		Join(expr.HashMod("r.b", 7), expr.Identity("s.b")).
		MustBuild()
	rs := NewJoin(l("r"), l("s"))
	probe, build, ok := rs.KeyTerms(q.Joins[1])
	if !ok || probe != q.Joins[1].R || build != q.Joins[1].L {
		t.Errorf("s.k = r.k at r ⋈ s: probe %v build %v ok %v, want r.k probes and s.k builds", probe, build, ok)
	}
	if _, _, ok := NewJoin(NewJoin(l("r"), l("s")), l("u")).KeyTerms(q.Joins[0]); ok {
		t.Error("a predicate with a term over both children is no key predicate")
	}
	if b, keys := rs.LeadKey(q); b != q.Joins[1].L || keys != 2 {
		t.Errorf("LeadKey(r ⋈ s) = %v, %d; want s.k, 2", b, keys)
	}
	if b, keys := NewJoin(l("s"), l("u")).LeadKey(q); b != nil || keys != 0 {
		t.Errorf("LeadKey(s ⋈ u) = %v, %d; want a nested loop", b, keys)
	}
	layout := shardCols{"S": "k", "R": "k"}
	if tbl, ok := l("s").ShardLocal(q, q.Joins[1].L, layout); !ok || tbl != "S" {
		t.Errorf("id(s.k) over s sharded on k: %q, %v; want S, local", tbl, ok)
	}
	for _, c := range []struct {
		leaf  *Node
		build *query.Term
	}{
		{l("s"), q.Joins[2].R},      // id(s.b), not the shard column
		{l("r"), q.Joins[2].L},      // a UDF of the shard table, not its identity
		{l("r", "s"), q.Joins[1].L}, // a multi-alias leaf is materialized
		{l("u"), q.Joins[0].R},      // U is not in the layout
	} {
		if _, ok := c.leaf.ShardLocal(q, c.build, layout); ok {
			t.Errorf("%s on %s: shard-local, want a reshuffle", c.build, c.leaf)
		}
	}
}
