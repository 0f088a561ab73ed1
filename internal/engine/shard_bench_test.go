package engine

import (
	"fmt"
	"runtime"
	"testing"

	"monsoon/internal/bench/tpch"
	"monsoon/internal/expr"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// benchCatalog builds a key join in miniature: a probe table P and a build
// table B whose first column is the join key, with buildRows/keys build rows
// per distinct key.
func benchCatalog(probeRows, buildRows, keys int) *table.Catalog {
	cat := table.NewCatalog()
	ps := table.NewSchema(
		table.Column{Table: "P", Name: "a", Kind: value.KindInt},
		table.Column{Table: "P", Name: "b", Kind: value.KindInt},
	)
	pb := table.NewBuilder("P", ps)
	for i := 0; i < probeRows; i++ {
		pb.Add(value.Int(int64(i%keys)), value.Int(int64(i)))
	}
	cat.Put(pb.Build())
	bs := table.NewSchema(
		table.Column{Table: "B", Name: "k", Kind: value.KindInt},
		table.Column{Table: "B", Name: "v", Kind: value.KindInt},
	)
	bb := table.NewBuilder("B", bs)
	for i := 0; i < buildRows; i++ {
		bb.Add(value.Int(int64(i%keys)), value.Int(int64(i)))
	}
	cat.Put(bb.Build())
	return cat
}

func benchQuery() *query.Query {
	return query.NewBuilder("bench").
		Rel("P", "P").Rel("B", "B").
		Join(expr.Identity("P.a"), expr.Identity("B.k")).
		MustBuild()
}

// BenchmarkCopartHashJoin times the full ExecTree drain of a hash join whose
// build key is the build table's first column.
func BenchmarkCopartHashJoin(b *testing.B) {
	cat := benchCatalog(150_000, 600_000, 150_000)
	q := benchQuery()
	tree := plan.NewJoin(leaf("P"), leaf("B"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(cat).NewExec(ExecConfig{})
		if _, _, err := e.ExecTree(q, tree, &Budget{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildOnly isolates the hash build of that join's build side
// at one worker (one sequential pass) and at eight (chunks, then the
// splice-merge).
func BenchmarkBuildOnly(b *testing.B) {
	const rows, keys = 600_000, 150_000
	buildRel := benchCatalog(1, rows, keys).MustGet("B")
	bTerm := &query.Term{Aliases: query.NewAliasSet("B"), Fn: expr.Identity("B.k")}
	keyOf := evalKey(bTerm, buildRel.Schema)
	e := New(table.NewCatalog()).NewExec(ExecConfig{})
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.build(nil, buildRel.Rows, keyOf, nil, w, &Budget{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiKeyJoin times tpch-q9's l ⋈ ps, the join with two key
// predicates whose first — the supplier, as the suite writes the query — has
// chains of 80 build rows of which the second keeps one: at the scale factor
// monsoond serves (24 k lines against 3,200 partsupp rows) and at
// engine_scan's (ten times both). Allocations are the gate on the filter
// slice: one per build beyond a single-key join's.
func BenchmarkMultiKeyJoin(b *testing.B) {
	q := query.NewBuilder("l-ps").
		Rel("l", "lineitem").Rel("ps", "partsupp").
		Join(expr.Identity("ps.ps_suppkey"), expr.Identity("l.l_suppkey")).
		Join(expr.Identity("ps.ps_partkey"), expr.Identity("l.l_partkey")).
		MustBuild()
	tree := plan.NewJoin(leaf("l"), leaf("ps"))
	for _, sf := range []float64{0.004, 0.04} {
		b.Run(fmt.Sprintf("sf=%v", sf), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			e := New(tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: 1})).NewExec(ExecConfig{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel, _, err := e.ExecTree(q, tree, &Budget{})
				if err != nil {
					b.Fatal(err)
				}
				if rel.Count() == 0 {
					b.Fatal("l ⋈ ps is empty")
				}
			}
		})
	}
}
