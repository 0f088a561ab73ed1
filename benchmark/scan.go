package main

import (
	"fmt"
	"time"

	"monsoon/internal/bench/tpch"
	"monsoon/internal/engine"
	"monsoon/internal/expr"
	"monsoon/internal/opt"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/stats"
	"monsoon/internal/table"
)

// scanTree is one engine_scan operation: a fixed plan tree over a query.
type scanTree struct {
	name string
	q    *query.Query
	tree *plan.Node
}

// scanSet is engine_scan's data and plans: TPC-H at scanSF, the ten suite
// queries as opt.GreedyPlan left-deep trees (no planner variance, no
// statistics beyond table sizes) and the two join shapes BENCH_sharding.json
// times (o⋈l builds on the storage shard key, c⋈o does not).
type scanSet struct {
	cat     *table.Catalog
	eng     *engine.Engine
	trees   []scanTree
	genTime time.Duration
}

func newScanSet() (*scanSet, error) {
	t0 := time.Now()
	cat := tpch.Generate(tpch.Config{ScaleFactor: scanSF, Seed: dataSeed})
	s := &scanSet{cat: cat, eng: engine.New(cat), genTime: time.Since(t0)}
	for _, q := range tpch.Queries() {
		st := stats.New()
		s.eng.SeedBaseStats(q, st)
		tree, err := opt.GreedyPlan(q, st)
		if err != nil {
			return nil, fmt.Errorf("greedy plan %s: %w", q.Name, err)
		}
		s.trees = append(s.trees, scanTree{name: q.Name, q: q, tree: tree})
	}
	leaf := func(a string) *plan.Node { return plan.NewLeaf(query.NewAliasSet(a)) }
	copart := query.NewBuilder("join-o-l").
		Rel("o", "orders").Rel("l", "lineitem").
		Join(expr.Identity("o.o_orderkey"), expr.Identity("l.l_orderkey")).
		MustBuild()
	reshuffle := query.NewBuilder("join-c-o").
		Rel("c", "customer").Rel("o", "orders").
		Join(expr.Identity("c.c_custkey"), expr.Identity("o.o_custkey")).
		MustBuild()
	s.trees = append(s.trees,
		scanTree{name: copart.Name, q: copart, tree: plan.NewJoin(leaf("o"), leaf("l"))},
		scanTree{name: reshuffle.Name, q: reshuffle, tree: plan.NewJoin(leaf("c"), leaf("o"))})
	return s, nil
}

// names lists the trees in their fixed order.
func (s *scanSet) names() []string {
	out := make([]string, len(s.trees))
	for i, t := range s.trees {
		out[i] = t.name
	}
	return out
}

func (s *scanSet) byName(name string) (scanTree, bool) {
	for _, t := range s.trees {
		if t.name == name {
			return t, true
		}
	}
	return scanTree{}, false
}

// exec runs one tree in a fresh execution scope with the engine's default
// batch size and parallelism, unsharded, and returns the answer plus the
// ExecTree wall time (the final aggregate is checked outside it).
func (s *scanSet) exec(t scanTree) (goldenAnswer, time.Duration, error) {
	return execTree(s.eng.NewExec(engine.ExecConfig{}), t)
}

func execTree(ex *engine.Exec, t scanTree) (goldenAnswer, time.Duration, error) {
	t0 := time.Now()
	rel, res, err := ex.ExecTree(t.q, t.tree, &engine.Budget{})
	d := time.Since(t0)
	if err != nil {
		return goldenAnswer{}, d, err
	}
	v, err := engine.FinalAggregate(t.q, rel)
	if err != nil {
		return goldenAnswer{}, d, err
	}
	return goldenAnswer{Rows: rel.Count(), Aggregate: v, Produced: res.Produced}, d, nil
}

// checkScan reports why a tree's answer is wrong, or "" when it is right.
func checkScan(want map[string]goldenAnswer, name string, got goldenAnswer, err error) string {
	if err != nil {
		return err.Error()
	}
	g, ok := want[name]
	if !ok {
		return "no golden"
	}
	if got != g {
		return fmt.Sprintf("answer %+v, golden %+v", got, g)
	}
	return ""
}
