package monsoon

import (
	"testing"

	"monsoon/internal/bench/tpch"
	"monsoon/internal/core"
	"monsoon/internal/engine"
	"monsoon/internal/expr"
	"monsoon/internal/harness"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// BenchmarkMonsoonSingleQuery measures one end-to-end Monsoon run (optimize +
// execute) on the public-API quickstart shape — the per-query unit behind
// every row of the paper's tables. With no event sink or metrics registry attached
// this is the observability layer's zero-cost guard: every instrumentation
// site reduces to a nil-receiver call, so this benchmark must hold the
// pre-instrumentation baseline (compare against BenchmarkMonsoonTraced to
// see what tracing actually buys and costs).
func BenchmarkMonsoonSingleQuery(b *testing.B) {
	cat := buildWorld()
	q := buildQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(q, cat, WithSeed(int64(i)), WithIterations(100)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonsoonTraced is the same run with the full observability stack
// attached — in-memory span collection plus a shared metrics registry — to
// make the instrumentation overhead directly comparable to the nil-sink
// baseline above.
func BenchmarkMonsoonTraced(b *testing.B) {
	cat := buildWorld()
	q := buildQuery()
	reg := NewMetricsRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := &TraceCollector{}
		if _, err := Run(q, cat, WithSeed(int64(i)), WithIterations(100),
			WithEventSink(col), WithMetrics(reg)); err != nil {
			b.Fatal(err)
		}
	}
}

// largeJoinFixture builds the serial-vs-parallel measurement workload: a
// 400k-row probe side against a 2000-key build side, with roughly half the
// probe rows matching. Probe-dominated by construction, so the benchmark
// pair below isolates what the partitioned probe buys.
func largeJoinFixture() (*table.Catalog, *query.Query, *plan.Node) {
	cat := table.NewCatalog()
	bs := table.NewSchema(table.Column{Table: "BIG", Name: "a", Kind: value.KindInt})
	bb := table.NewBuilder("BIG", bs)
	for i := 0; i < 400000; i++ {
		bb.Add(value.Int(int64(i % 4000)))
	}
	cat.Put(bb.Build())
	ss := table.NewSchema(table.Column{Table: "SM", Name: "k", Kind: value.KindInt})
	sb := table.NewBuilder("SM", ss)
	for i := 0; i < 2000; i++ {
		sb.Add(value.Int(int64(i)))
	}
	cat.Put(sb.Build())
	q := query.NewBuilder("large").
		Rel("BIG", "BIG").Rel("SM", "SM").
		Join(expr.Identity("BIG.a"), expr.Identity("SM.k")).
		MustBuild()
	tree := plan.NewJoin(
		plan.NewLeaf(query.NewAliasSet("BIG")),
		plan.NewLeaf(query.NewAliasSet("SM")),
	)
	return cat, q, tree
}

// BenchmarkLargeJoin measures the hash-join probe at the width go test's -cpu
// flag sets: `-cpu 1,2` runs it with the worker pool off and on two cores.
// Every width produces bit-identical relations (see
// TestSerialParallelIdentical); the delta is pure probe-side speedup from the
// partitioned parallel path.
func BenchmarkLargeJoin(b *testing.B) {
	cat, q, tree := largeJoinFixture()
	ex := engine.New(cat).NewExec(engine.ExecConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, _, err := ex.ExecTree(q, tree, &engine.Budget{})
		if err != nil {
			b.Fatal(err)
		}
		if rel.Count() != 200000 {
			b.Fatalf("join produced %d rows, want 200000", rel.Count())
		}
	}
}

// BenchmarkPlanPhase measures the cold-cache plan phase alone on the small
// campaign's TPC-H workload (the suite recorded in campaign_small.txt): every
// iteration plans each query from scratch — no plan cache, full MCTS every
// round — with the timer stopped while the EXECUTE rounds run, so `-cpu 1,8`
// isolates what root-parallel planning buys on a cache miss. Every width
// plans byte-identically (TestPlanParallelismGolden); the delta is planner
// wall time only. The measured speedup (or its absence on few-core hosts) is
// recorded in EXPERIMENTS.md.
func BenchmarkPlanPhase(b *testing.B) {
	sc := harness.Small()
	cat := tpch.Generate(tpch.Config{ScaleFactor: sc.TPCHSF, Seed: sc.Seed})
	queries := tpch.Queries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			b.StopTimer()
			eng := engine.New(cat)
			s := core.NewSession(q, eng, &engine.Budget{MaxTuples: sc.MaxTuples}, core.Config{
				Seed: sc.Seed, Iterations: sc.MCTSIterations,
			})
			b.StartTimer()
			for {
				execute, err := s.PlanRound()
				if err != nil {
					b.Fatal(err)
				}
				if !execute {
					break
				}
				b.StopTimer()
				if err := s.ExecuteRound(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			if _, err := s.Finalize(); err != nil {
				b.Fatal(err)
			}
			s.Close()
			b.StartTimer()
		}
	}
}

func benchMonsoonRepeat(b *testing.B, cache *PlanCache) {
	cat := buildWorld()
	q := buildQuery()
	opts := []RunOption{WithSeed(7), WithIterations(100)}
	if cache != nil {
		opts = append(opts, WithPlanCache(cache))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(q, cat, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonsoonRepeatUncached / BenchmarkMonsoonRepeatCached measure the
// plan cache on the workload it targets: the same (query, seed) run back to
// back. The uncached run re-plans with MCTS every time; the cached run pays
// the search once, then takes the memoized picks — with plans pinned
// identical by TestCachedEqualsUncachedGolden — so the delta is the planning
// time the cache eliminates.
func BenchmarkMonsoonRepeatUncached(b *testing.B) { benchMonsoonRepeat(b, nil) }
func BenchmarkMonsoonRepeatCached(b *testing.B)   { benchMonsoonRepeat(b, NewPlanCache(0)) }
