package tpch

import (
	"testing"

	"monsoon/internal/cost"
	"monsoon/internal/engine"
	"monsoon/internal/opt"
	"monsoon/internal/stats"
)

func TestGenerateShape(t *testing.T) {
	cat := Generate(Config{ScaleFactor: 0.002, Seed: 1})
	for _, name := range []string{"region", "nation", "supplier", "customer",
		"part", "partsupp", "orders", "lineitem"} {
		if _, ok := cat.Get(name); !ok {
			t.Fatalf("missing table %q", name)
		}
	}
	if cat.MustGet("region").Count() != 5 || cat.MustGet("nation").Count() != 25 {
		t.Error("region/nation sizes wrong")
	}
	orders := cat.MustGet("orders").Count()
	lineitem := cat.MustGet("lineitem").Count()
	if lineitem < 2*orders || lineitem > 8*orders {
		t.Errorf("lineitem/orders ratio implausible: %d/%d", lineitem, orders)
	}
	// FK integrity: every o_custkey within customer key range.
	nCust := int64(cat.MustGet("customer").Count())
	ci := cat.MustGet("orders").Schema.MustLookup("orders.o_custkey")
	for _, row := range cat.MustGet("orders").Rows {
		k := row[ci].AsInt()
		if k < 1 || k > nCust {
			t.Fatalf("dangling o_custkey %d", k)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{ScaleFactor: 0.002, Seed: 5})
	b := Generate(Config{ScaleFactor: 0.002, Seed: 5})
	if a.MustGet("orders").Count() != b.MustGet("orders").Count() {
		t.Fatal("same seed, different sizes")
	}
	ra, rb := a.MustGet("orders").Rows[0], b.MustGet("orders").Rows[0]
	for i := range ra {
		if !ra[i].Equal(rb[i]) {
			t.Fatal("same seed, different content")
		}
	}
}

func TestSkewChangesDistribution(t *testing.T) {
	// Count the hottest o_custkey value with and without skew.
	hot := func(cfg Config) int {
		cat := Generate(cfg)
		idx := cat.MustGet("orders").Schema.MustLookup("orders.o_custkey")
		h := map[int64]int{}
		for _, row := range cat.MustGet("orders").Rows {
			h[row[idx].AsInt()]++
		}
		max := 0
		for _, c := range h {
			if c > max {
				max = c
			}
		}
		return max
	}
	flatHot := hot(Config{ScaleFactor: 0.005, Seed: 2, Skew: 0})
	skewHot := hot(Config{ScaleFactor: 0.005, Seed: 2, Skew: 4})
	if skewHot < 10*flatHot {
		t.Errorf("z=4 skew too weak: hottest %d vs flat %d", skewHot, flatHot)
	}
	// Mixed skew must also generate successfully.
	Generate(Config{ScaleFactor: 0.002, Seed: 3, MixedSkew: true})
}

func TestQueriesValidate(t *testing.T) {
	qs := Queries()
	if len(qs) != 10 {
		t.Fatalf("got %d queries, want 10", len(qs))
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
		if q.Aliases().Size() < 3 {
			t.Errorf("%s has fewer than 3 tables", q.Name)
		}
	}
}

func TestQueriesExecutable(t *testing.T) {
	cat := Generate(Config{ScaleFactor: 0.002, Seed: 7})
	for _, q := range Queries() {
		eng := engine.New(cat)
		st := stats.New()
		eng.SeedBaseStats(q, st)
		dv := &cost.Deriver{Q: q, St: st, Miss: cost.DefaultMiss(0.1)}
		tree, err := opt.BestPlan(q, dv)
		if err != nil {
			t.Fatalf("%s: plan: %v", q.Name, err)
		}
		if _, _, err := eng.NewExec(engine.ExecConfig{}).ExecTree(q, tree, &engine.Budget{MaxTuples: 5e7}); err != nil {
			t.Errorf("%s: exec: %v", q.Name, err)
		}
	}
}
