package engine

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"monsoon/internal/expr"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// execAt runs the tree on a fresh engine with the given batch size and worker
// count and returns everything a determinism check cares about.
func execAt(t *testing.T, cat *table.Catalog, q *query.Query, tree *plan.Node, batch, par int) (*table.Relation, *ExecResult, float64) {
	t.Helper()
	e := New(cat).NewExec(ExecConfig{testBatch: batch, Parallelism: par})
	b := &Budget{}
	rel, res, err := e.ExecTree(q, tree, b)
	if err != nil {
		t.Fatalf("batch %d par %d: %v", batch, par, err)
	}
	return rel, res, b.Produced()
}

// streamBatchSizes spans the interesting regimes: row-at-a-time, a prime that
// straddles every operator boundary, the default, batch ≥ input, and a batch
// no intermediate reaches, which restores one-shot materialization.
var streamBatchSizes = []int{1, 7, 4096, 1 << 20, 1 << 30}

// TestStreamingMatchesMaterialized is the tentpole guarantee at the engine
// level: the streaming pipeline must be bit-identical to full materialization
// — same rows in the same order, same per-node counts, same objects-produced
// charge — at every batch size.
func TestStreamingMatchesMaterialized(t *testing.T) {
	q := rstQuery()
	trees := map[string]*plan.Node{
		"two-way":    plan.NewJoin(leaf("R"), leaf("S")),
		"three-way":  plan.NewJoin(plan.NewJoin(leaf("R"), leaf("S")), leaf("T")),
		"right-deep": plan.NewJoin(leaf("T"), plan.NewJoin(leaf("S"), leaf("R"))),
		"cross":      plan.NewJoin(leaf("S"), leaf("T")),
		"sigma-leaf": leaf("R").WithSigma(),
	}
	for name, tree := range trees {
		refRel, refRes, refProduced := execAt(t, fixture(), q, tree, 1<<30, 1)
		for _, batch := range streamBatchSizes {
			rel, res, produced := execAt(t, fixture(), q, tree, batch, 1)
			if !table.IdenticalRows(rel.Rows, refRel.Rows) {
				t.Errorf("%s batch %d: rows differ from materialized (%d vs %d)",
					name, batch, rel.Count(), refRel.Count())
			}
			if !reflect.DeepEqual(res.Counts, refRes.Counts) {
				t.Errorf("%s batch %d: counts %v, want %v", name, batch, res.Counts, refRes.Counts)
			}
			if res.Produced != refRes.Produced || produced != refProduced {
				t.Errorf("%s batch %d: produced %v/%v, want %v/%v",
					name, batch, res.Produced, produced, refRes.Produced, refProduced)
			}
			if !reflect.DeepEqual(res.Sigma, refRes.Sigma) {
				t.Errorf("%s batch %d: sigma observations diverged", name, batch)
			}
		}
	}
}

// TestStreamingParallelMatchesSerial pins the parallel streaming path: the
// fan-out operators must stitch every batch back in input order, so any
// (batch size × worker count) combination yields the serial materialized
// answer byte for byte.
func TestStreamingParallelMatchesSerial(t *testing.T) {
	q := rstQuery()
	tree := plan.NewJoin(plan.NewJoin(leaf("R"), leaf("S")), leaf("T"))
	refRel, refRes, _ := execAt(t, fixture(), q, tree, 1<<30, 1)
	for _, batch := range streamBatchSizes {
		for _, par := range []int{0, 2, 4} {
			rel, res, _ := execAt(t, fixture(), q, tree, batch, par)
			if !table.IdenticalRows(rel.Rows, refRel.Rows) {
				t.Errorf("batch %d par %d: rows differ from serial materialized", batch, par)
			}
			if res.Produced != refRes.Produced || !reflect.DeepEqual(res.Counts, refRes.Counts) {
				t.Errorf("batch %d par %d: accounting diverged: %v/%v vs %v/%v",
					batch, par, res.Produced, res.Counts, refRes.Produced, refRes.Counts)
			}
		}
	}
}

// TestStreamingResidualsAcrossBatches covers residual predicates whose
// evaluation straddles batch boundaries: the multi-alias SumMod term becomes
// evaluable only mid-pipeline, and a 7-row batch slices every operator's
// input at positions the materialized run never sees.
func TestStreamingResidualsAcrossBatches(t *testing.T) {
	q := query.NewBuilder("multi").
		Rel("s", "S").Rel("t1", "T").Rel("t2", "T").
		Join(expr.SumMod("s.k", "t1.k", 7), expr.Identity("t2.k")).
		MustBuild()
	for name, tree := range map[string]*plan.Node{
		"left-deep":  plan.NewJoin(plan.NewJoin(leaf("s"), leaf("t1")), leaf("t2")),
		"right-deep": plan.NewJoin(leaf("t2"), plan.NewJoin(leaf("s"), leaf("t1"))),
	} {
		refRel, refRes, _ := execAt(t, fixture(), q, tree, 1<<30, 1)
		for _, batch := range streamBatchSizes {
			rel, res, _ := execAt(t, fixture(), q, tree, batch, 1)
			if !table.IdenticalRows(rel.Rows, refRel.Rows) {
				t.Errorf("%s batch %d: residual rows differ from materialized", name, batch)
			}
			if res.Produced != refRes.Produced {
				t.Errorf("%s batch %d: produced %v, want %v", name, batch, res.Produced, refRes.Produced)
			}
		}
	}
}

// TestStreamingEmptyInputs: empty relations must flow through the pipeline as
// zero batches, not crash it — on either side of a hash join or a cross
// product.
func TestStreamingEmptyInputs(t *testing.T) {
	cat := fixture()
	es := table.NewSchema(table.Column{Table: "E", Name: "k", Kind: value.KindInt})
	cat.Put(table.NewBuilder("E", es).Build())
	q := query.NewBuilder("empty").
		Rel("R", "R").Rel("E", "E").
		Join(expr.Identity("R.a"), expr.Identity("E.k")).
		MustBuild()
	for name, tree := range map[string]*plan.Node{
		"empty-right": plan.NewJoin(leaf("R"), leaf("E")),
		"empty-left":  plan.NewJoin(leaf("E"), leaf("R")),
		"empty-leaf":  leaf("E"),
	} {
		for _, batch := range streamBatchSizes {
			e := New(cat).NewExec(ExecConfig{testBatch: batch})
			rel, res, err := e.ExecTree(q, tree, &Budget{})
			if err != nil {
				t.Fatalf("%s batch %d: %v", name, batch, err)
			}
			if rel.Count() != 0 {
				t.Errorf("%s batch %d: %d rows, want 0", name, batch, rel.Count())
			}
			if name == "empty-leaf" && res.Produced != 0 {
				t.Errorf("%s batch %d: produced %v, want 0", name, batch, res.Produced)
			}
		}
	}
}

// TestStreamingReuseAcrossBatchSizes: reusing a previously materialized
// subtree must charge and count identically whether the reuse pass is sliced
// into slabs or replayed whole.
func TestStreamingReuseAcrossBatchSizes(t *testing.T) {
	q := rstQuery()
	ref := -1.0
	for _, batch := range streamBatchSizes {
		e := New(fixture()).NewExec(ExecConfig{testBatch: batch})
		if _, _, err := e.ExecTree(q, plan.NewJoin(leaf("R"), leaf("S")), &Budget{}); err != nil {
			t.Fatal(err)
		}
		rel, res, err := e.ExecTree(q, plan.NewJoin(leaf("R", "S"), leaf("T")), &Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if rel.Count() != 1000 {
			t.Errorf("batch %d: ([R+S]⋈T) = %d, want 1000", batch, rel.Count())
		}
		if ref < 0 {
			ref = res.Produced
		} else if res.Produced != ref {
			t.Errorf("batch %d: reuse produced %v, want %v", batch, res.Produced, ref)
		}
	}
}

// TestStreamingBudgetCharges: the tuple cap must trip under streaming exactly
// as it does under materialization — the per-batch charging changes when the
// check happens, never whether it happens.
func TestStreamingBudgetCharges(t *testing.T) {
	q := rstQuery()
	for _, batch := range streamBatchSizes {
		e := New(fixture()).NewExec(ExecConfig{testBatch: batch})
		_, _, err := e.ExecTree(q, plan.NewJoin(leaf("R"), leaf("S")), &Budget{MaxTuples: 100})
		if err == nil {
			t.Errorf("batch %d: tuple cap must trip", batch)
		}
	}
}

// watchIter hands every batch its iterator returns to saw on the way through.
type watchIter struct {
	rowIter
	saw func([]table.Row)
}

func (w *watchIter) Next() ([]table.Row, error) {
	b, err := w.rowIter.Next()
	if b != nil {
		w.saw(b)
	}
	return b, err
}

// TestStreamingJoinHoldsOneBatch: a streaming join that expands its input
// emits one batch per pull, not the join of its whole input batch. Every row
// of P matches the m rows of B that carry its key, and P ⋈ B streams into a
// parent join's probe side. Every batch the child hands its parent must hold
// at most testBatch + m rows, and the slabs its states hold must stay within
// a slab's growth of that: twice the bound plus one full slab per state.
func TestStreamingJoinHoldsOneBatch(t *testing.T) {
	const probeRows, keys, m = 300, 10, 64
	cat := table.NewCatalog()
	for _, spec := range []struct {
		name string
		rows int
		key  func(i int) int
	}{
		{"P", probeRows, func(i int) int { return i % keys }},
		{"B", keys * m, func(i int) int { return i / m }},
		{"Q", keys, func(i int) int { return i }},
	} {
		b := table.NewBuilder(spec.name, table.NewSchema(
			table.Column{Table: spec.name, Name: "k", Kind: value.KindInt},
			table.Column{Table: spec.name, Name: "i", Kind: value.KindInt},
		))
		for i := 0; i < spec.rows; i++ {
			b.Add(value.Int(int64(spec.key(i))), value.Int(int64(i)))
		}
		cat.Put(b.Build())
	}
	q := query.NewBuilder("pbq").Rel("p", "P").Rel("b", "B").Rel("q", "Q").
		Join(expr.Identity("p.k"), expr.Identity("b.k")).
		Join(expr.Identity("q.k"), expr.Identity("p.k")).
		MustBuild()
	tree := plan.NewJoin(plan.NewJoin(leaf("p"), leaf("b")), leaf("q"))
	for _, batch := range []int{7, 64, 4096} {
		for _, par := range []int{1, 2} {
			at := fmt.Sprintf("BatchSize %d Parallelism %d", batch, par)
			ex := New(cat).NewExec(ExecConfig{testBatch: batch, Parallelism: par})
			res := &ExecResult{Counts: map[string]float64{}, Times: map[string]time.Duration{}}
			it, _, err := ex.open(q, tree, &Budget{}, res, nil, true)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			parent := it.inner.(*joinIter)
			child := parent.left.(*nodeIter).inner.(*joinIter)
			pulls, most, slabMost := 0, 0, 0
			parent.left = &watchIter{rowIter: parent.left, saw: func(b []table.Row) {
				pulls++
				most = max(most, len(b))
				slabbed := 0
				for _, st := range child.states.states {
					for _, s := range append(st.slabs, st.spare...) {
						slabbed += len(s) / st.width
					}
				}
				slabMost = max(slabMost, slabbed)
			}}
			rows := 0
			for {
				b, err := it.Next()
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if b == nil {
					break
				}
				rows += len(b)
			}
			it.Close(nil)
			ex.Release()
			if rows != probeRows*m {
				t.Fatalf("%s: %d rows, want %d", at, rows, probeRows*m)
			}
			t.Logf("%s: %d pulls, largest batch %d rows, slabs held at most %d rows", at, pulls, most, slabMost)
			if most > batch+m {
				t.Errorf("%s: the child returned a batch of %d rows, bound %d", at, most, batch+m)
			}
			if bound := 2*(batch+m) + len(child.states.states)*slabRows; slabMost > bound {
				t.Errorf("%s: the child's slabs held %d rows, bound %d", at, slabMost, bound)
			}
		}
	}
}
