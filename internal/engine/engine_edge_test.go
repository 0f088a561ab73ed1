package engine

import (
	"testing"

	"monsoon/internal/expr"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// TestSelfJoinAliases: one stored table mounted under two aliases must
// behave as two independent relations (the o1/o2 pattern of §2.2).
func TestSelfJoinAliases(t *testing.T) {
	cat := table.NewCatalog()
	s := table.NewSchema(table.Column{Table: "ord", Name: "cid", Kind: value.KindInt})
	b := table.NewBuilder("ord", s)
	for i := 0; i < 50; i++ {
		b.Add(value.Int(int64(i % 10)))
	}
	cat.Put(b.Build())
	q := query.NewBuilder("self").
		Rel("o1", "ord").Rel("o2", "ord").
		Join(expr.Identity("o1.cid"), expr.Identity("o2.cid")).
		MustBuild()
	e := New(cat).NewExec(ExecConfig{})
	rel, _, err := e.ExecTree(q,
		plan.NewJoin(plan.NewLeaf(query.NewAliasSet("o1")), plan.NewLeaf(query.NewAliasSet("o2"))),
		&Budget{})
	if err != nil {
		t.Fatal(err)
	}
	// 10 groups of 5 rows each: 10 * 5 * 5 = 250 matches.
	if rel.Count() != 250 {
		t.Errorf("self join = %d rows, want 250", rel.Count())
	}
	if _, ok := rel.Schema.Lookup("o1.cid"); !ok {
		t.Error("o1 columns missing")
	}
	if _, ok := rel.Schema.Lookup("o2.cid"); !ok {
		t.Error("o2 columns missing")
	}
}

// TestMultiplePredicatesAtOneJoin: two equality predicates between the same
// pair must both be applied (one as hash key, one as residual).
func TestMultiplePredicatesAtOneJoin(t *testing.T) {
	cat := table.NewCatalog()
	mk := func(name string, shift int64) *table.Relation {
		s := table.NewSchema(
			table.Column{Table: name, Name: "x", Kind: value.KindInt},
			table.Column{Table: name, Name: "y", Kind: value.KindInt},
		)
		b := table.NewBuilder(name, s)
		for i := int64(0); i < 100; i++ {
			b.Add(value.Int(i%10), value.Int((i+shift)%10))
		}
		return b.Build()
	}
	cat.Put(mk("A", 0))
	cat.Put(mk("B", 0)) // same (x,y) pattern: joint join matches
	cat.Put(mk("C", 1)) // shifted y: joint join empty
	qAB := query.NewBuilder("ab").
		Rel("A", "A").Rel("B", "B").
		Join(expr.Identity("A.x"), expr.Identity("B.x")).
		Join(expr.Identity("A.y"), expr.Identity("B.y")).
		MustBuild()
	e := New(cat).NewExec(ExecConfig{})
	rel, _, err := e.ExecTree(qAB,
		plan.NewJoin(plan.NewLeaf(query.NewAliasSet("A")), plan.NewLeaf(query.NewAliasSet("B"))), &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	// x determines y within each table, so joint = x-join: 10 * 10 * 10.
	if rel.Count() != 1000 {
		t.Errorf("A⋈B on (x,y) = %d, want 1000", rel.Count())
	}
	qAC := query.NewBuilder("ac").
		Rel("A", "A").Rel("C", "C").
		Join(expr.Identity("A.x"), expr.Identity("C.x")).
		Join(expr.Identity("A.y"), expr.Identity("C.y")).
		MustBuild()
	rel, _, err = e.ExecTree(qAC,
		plan.NewJoin(plan.NewLeaf(query.NewAliasSet("A")), plan.NewLeaf(query.NewAliasSet("C"))), &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Count() != 0 {
		t.Errorf("A⋈C on (x,y) = %d, want 0 (correlated shift)", rel.Count())
	}
}

// TestSigmaOverJoinedExpression: Σ on top of a join measures distinct counts
// over the join result, not the base tables.
func TestSigmaOverJoinedExpression(t *testing.T) {
	cat := table.NewCatalog()
	as := table.NewSchema(
		table.Column{Table: "A", Name: "k", Kind: value.KindInt},
		table.Column{Table: "A", Name: "v", Kind: value.KindInt},
	)
	ab := table.NewBuilder("A", as)
	for i := 0; i < 100; i++ {
		ab.Add(value.Int(int64(i%4)), value.Int(int64(i)))
	}
	cat.Put(ab.Build())
	bs := table.NewSchema(table.Column{Table: "B", Name: "k", Kind: value.KindInt})
	bb := table.NewBuilder("B", bs)
	bb.Add(value.Int(0)) // joins only k=0 rows
	cat.Put(bb.Build())
	cs := table.NewSchema(table.Column{Table: "C", Name: "v", Kind: value.KindInt})
	cb := table.NewBuilder("C", cs)
	cb.Add(value.Int(1))
	cat.Put(cb.Build())
	q := query.NewBuilder("sigjoin").
		Rel("A", "A").Rel("B", "B").Rel("C", "C").
		Join(expr.Identity("A.k"), expr.Identity("B.k")).
		Join(expr.Identity("A.v"), expr.Identity("C.v")).
		MustBuild()
	e := New(cat).NewExec(ExecConfig{})
	tree := plan.NewJoin(plan.NewLeaf(query.NewAliasSet("A")), plan.NewLeaf(query.NewAliasSet("B"))).WithSigma()
	_, res, err := e.ExecTree(q, tree, &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	// A⋈B keeps the 25 rows with k=0; d(A.v) over the *join* is 25, not 100.
	found := false
	for _, o := range res.Sigma {
		if o.Term == q.Joins[1].L.ID {
			found = true
			if o.D < 23 || o.D > 27 {
				t.Errorf("d(A.v | A⋈B) = %v, want ~25", o.D)
			}
		}
	}
	if !found {
		t.Error("Σ must measure the still-open term over the join result")
	}
}

// TestBudgetSharedAcrossTrees: one budget spans several ExecTree calls (the
// multi-step driver's usage).
func TestBudgetSharedAcrossTrees(t *testing.T) {
	cat := fixture()
	q := rstQuery()
	e := New(cat).NewExec(ExecConfig{})
	b := &Budget{MaxTuples: 1600}
	// First tree: R filtered-free scan (1000) + S (50) + join (500) = 1550.
	if _, _, err := e.ExecTree(q, plan.NewJoin(
		plan.NewLeaf(query.NewAliasSet("R")), plan.NewLeaf(query.NewAliasSet("S"))), b); err != nil {
		t.Fatalf("first tree should fit: %v", err)
	}
	// Second tree (Σ over the 1000-row R) cannot fit in the remaining 50.
	if _, _, err := e.ExecTree(q, plan.NewLeaf(query.NewAliasSet("R")).WithSigma(), b); err == nil {
		t.Error("second tree must exhaust the shared budget")
	}
}

// TestEmptyInputsPropagate: empty base tables flow through joins and Σ
// without errors.
func TestEmptyInputsPropagate(t *testing.T) {
	cat := table.NewCatalog()
	es := table.NewSchema(table.Column{Table: "E", Name: "k", Kind: value.KindInt})
	cat.Put(table.NewBuilder("E", es).Build()) // zero rows
	fs := table.NewSchema(table.Column{Table: "F", Name: "k", Kind: value.KindInt})
	fb := table.NewBuilder("F", fs)
	fb.Add(value.Int(1))
	cat.Put(fb.Build())
	q := query.NewBuilder("empty").
		Rel("E", "E").Rel("F", "F").
		Join(expr.Identity("E.k"), expr.Identity("F.k")).
		MustBuild()
	e := New(cat).NewExec(ExecConfig{})
	tree := plan.NewJoin(plan.NewLeaf(query.NewAliasSet("E")), plan.NewLeaf(query.NewAliasSet("F"))).WithSigma()
	rel, res, err := e.ExecTree(q, tree, &Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Count() != 0 {
		t.Errorf("empty join = %d rows", rel.Count())
	}
	for _, o := range res.Sigma {
		if o.D != 0 {
			t.Errorf("Σ over empty result must measure 0, got %v", o.D)
		}
	}
}
