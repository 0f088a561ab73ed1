package ott

import (
	"errors"
	"testing"

	"monsoon/internal/engine"
	"monsoon/internal/plan"
	"monsoon/internal/query"
)

func TestGenerateAugmentation(t *testing.T) {
	cat := Generate(Config{ScaleFactor: 0.001, Seed: 1})
	for _, name := range augmented {
		tbl := cat.MustGet(name)
		if _, ok := tbl.Schema.Lookup(name + ".x"); !ok {
			t.Fatalf("%s missing x", name)
		}
		yi := tbl.Schema.MustLookup(name + ".y")
		xi := tbl.Schema.MustLookup(name + ".x")
		// y = (x + rank) mod D within each table.
		rank := int64(indexOf(augmented, name))
		for _, row := range tbl.Rows[:min(50, len(tbl.Rows))] {
			want := (row[xi].AsInt() + rank) % 100
			if row[yi].AsInt() != want {
				t.Fatalf("%s: y correlation broken: x=%d y=%d rank=%d",
					name, row[xi].AsInt(), row[yi].AsInt(), rank)
			}
		}
	}
}

func TestQueriesAreEmptyUnderBestPlan(t *testing.T) {
	cat := Generate(Config{ScaleFactor: 0.001, Seed: 2})
	cases := Queries()
	if len(cases) != 20 {
		t.Fatalf("got %d cases, want 20", len(cases))
	}
	for _, c := range cases[:8] { // a subset keeps the test fast
		if err := c.Query.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Query.Name, err)
		}
		ex := engine.New(cat).NewExec(engine.ExecConfig{})
		rel, _, err := ex.ExecTree(c.Query, c.Best, &engine.Budget{MaxTuples: 5e6})
		if err != nil {
			t.Fatalf("%s: best plan aborted: %v", c.Query.Name, err)
		}
		if rel.Count() != 0 {
			t.Errorf("%s: result has %d rows, want empty", c.Query.Name, rel.Count())
		}
	}
}

func TestBadOrderExplodes(t *testing.T) {
	// Reversing the chain defers the empty pair to the end; the skewed fat
	// joins must then blow past a budget the good order fits in easily.
	cat := Generate(Config{ScaleFactor: 0.002, Seed: 3})
	c := Queries()[0] // orders–lineitem–customer
	ex := engine.New(cat).NewExec(engine.ExecConfig{})
	_, er, err := ex.ExecTree(c.Query, c.Best, &engine.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	goodCost := er.Produced
	bad := plan.LeftDeep([]query.AliasSet{
		query.NewAliasSet("l"), query.NewAliasSet("c"), query.NewAliasSet("o"),
	})
	ex2 := engine.New(cat).NewExec(engine.ExecConfig{})
	_, er2, err2 := ex2.ExecTree(c.Query, bad, &engine.Budget{MaxTuples: 50 * goodCost})
	if err2 == nil && er2.Produced < 10*goodCost {
		t.Errorf("bad order too cheap: %v vs good %v", er2.Produced, goodCost)
	}
	if err2 != nil && !errors.Is(err2, engine.ErrBudget) {
		t.Fatalf("unexpected error: %v", err2)
	}
}

func TestHandWrittenStartsWithEmptyPair(t *testing.T) {
	for _, c := range Queries() {
		leaves := c.Best.Leaves()
		a0, a1 := leaves[0].Key(), leaves[1].Key()
		// The first two leaves must be the pair carrying two predicates.
		pairPreds := 0
		pair := query.NewAliasSet(a0, a1)
		for _, p := range c.Query.Joins {
			if p.Aliases().SubsetOf(pair) {
				pairPreds++
			}
		}
		if pairPreds != 2 {
			t.Errorf("%s: hand-written plan does not start with the correlated pair", c.Query.Name)
		}
	}
}

func indexOf(xs []string, s string) int {
	for i, x := range xs {
		if x == s {
			return i
		}
	}
	return -1
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
