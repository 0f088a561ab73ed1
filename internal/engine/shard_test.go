package engine

import (
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// TestShardedMatchesUnsharded is the rst fixture's determinism gate: for
// every batch size and worker count, every tree shape — a build joined on its
// first column, one joined on its second, deep trees, Σ roots and a cross
// product — is bit-identical to the serial materialized run: same rows in the
// same order, same counts, same produced charge, same Σ estimates.
func TestShardedMatchesUnsharded(t *testing.T) {
	q := rstQuery()
	trees := map[string]*plan.Node{
		"first-col":  plan.NewJoin(leaf("R"), leaf("S")),
		"second-col": plan.NewJoin(leaf("T"), leaf("R")),
		"three-way":  plan.NewJoin(plan.NewJoin(leaf("R"), leaf("S")), leaf("T")),
		"right-deep": plan.NewJoin(leaf("T"), plan.NewJoin(leaf("S"), leaf("R"))),
		"sigma-join": plan.NewJoin(leaf("R"), leaf("S")).WithSigma(),
		"sigma-leaf": leaf("R").WithSigma(),
		"cross":      plan.NewJoin(leaf("S"), leaf("T")),
	}
	for name, tree := range trees {
		refRel, refRes, refProduced := execAt(t, fixture(), q, tree, 1<<30, 1)
		for _, batch := range []int{1, 4096, 1 << 30} {
			for _, par := range []int{1, 4} {
				rel, res, produced := execAt(t, fixture(), q, tree, batch, par)
				if !table.IdenticalRows(rel.Rows, refRel.Rows) {
					t.Errorf("%s batch=%d par=%d: rows differ from the reference (%d vs %d)",
						name, batch, par, rel.Count(), refRel.Count())
				}
				if !reflect.DeepEqual(res.Counts, refRes.Counts) {
					t.Errorf("%s batch=%d par=%d: counts %v, want %v", name, batch, par, res.Counts, refRes.Counts)
				}
				if res.Produced != refRes.Produced || produced != refProduced {
					t.Errorf("%s batch=%d par=%d: produced %v/%v, want %v/%v",
						name, batch, par, res.Produced, produced, refRes.Produced, refProduced)
				}
				if !reflect.DeepEqual(res.Sigma, refRes.Sigma) {
					t.Errorf("%s batch=%d par=%d: sigma observations diverged", name, batch, par)
				}
			}
		}
	}
}

// TestShardedLargeParallel crosses the fan-out thresholds: the big fixture's
// join builds, scans and runs its Σ pass over several workers and matches the
// serial run.
func TestShardedLargeParallel(t *testing.T) {
	q := bigQuery()
	tree := plan.NewJoin(leaf("BR"), leaf("BS")).WithSigma()
	refRel, refRes, refProduced := execAt(t, bigFixture(), q, tree, 1<<30, 1)
	for _, par := range []int{1, 4} {
		rel, res, produced := execAt(t, bigFixture(), q, tree, 4096, par)
		if !table.IdenticalRows(rel.Rows, refRel.Rows) {
			t.Errorf("par=%d: rows differ from the serial run", par)
		}
		if res.Produced != refRes.Produced || produced != refProduced {
			t.Errorf("par=%d: produced %v/%v, want %v/%v", par, res.Produced, produced, refRes.Produced, refProduced)
		}
		if !reflect.DeepEqual(res.Sigma, refRes.Sigma) {
			t.Errorf("par=%d: sigma estimates diverged", par)
		}
	}
}

// TestShardedBuildSideSelections pushes a selection onto the build side,
// filtered serially and fanned out, and still matches the serial answer
// exactly.
func TestShardedBuildSideSelections(t *testing.T) {
	q := query.NewBuilder("bigsel").
		Rel("BR", "BR").Rel("BS", "BS").
		Join(expr.Identity("BR.a"), expr.Identity("BS.k")).
		Select(expr.Identity("BS.k"), value.Int(37)).
		MustBuild()
	tree := plan.NewJoin(leaf("BR"), leaf("BS"))
	refRel, refRes, _ := execAt(t, bigFixture(), q, tree, 1<<30, 1)
	for _, par := range []int{1, 4} {
		rel, res, _ := execAt(t, bigFixture(), q, tree, 4096, par)
		if !table.IdenticalRows(rel.Rows, refRel.Rows) {
			t.Errorf("par=%d: filtered build rows differ", par)
		}
		if res.Produced != refRes.Produced {
			t.Errorf("par=%d: produced %v, want %v", par, res.Produced, refRes.Produced)
		}
	}
}

// TestShardedSpansMatchUnsharded: Catalog.Shard, which the benchmark's layer
// pass still calls before re-running its trees, changes no span: every matrix
// case emits the same span stream after Shard(4) as before it, at one worker
// and at seven, and no span carries the attributes a priced exchange once
// added (shards, local, exchange_rows).
func TestShardedSpansMatchUnsharded(t *testing.T) {
	all := func(*obs.Span) bool { return true }
	spansAt := func(cat *table.Catalog, par int, mc matrixCase) []*obs.Span {
		col := &obs.Collector{}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
		ex := New(cat).NewExec(ExecConfig{Obs: obs.NewTracer(col)})
		for _, tree := range mc.trees {
			if _, _, err := ex.ExecTree(mc.q, tree, &Budget{}); err != nil {
				t.Fatalf("par=%d %s %s: %v", par, mc.name, tree, err)
			}
		}
		return col.Spans
	}
	for _, mc := range matrixCases() {
		for _, par := range []int{1, 7} {
			want := sigsOf(spansAt(matrixCatalog(matrixSeeds[0]), par, mc), all, nil)
			cat := matrixCatalog(matrixSeeds[0])
			cat.Shard(4)
			spans := spansAt(cat, par, mc)
			for _, sp := range spans {
				for _, k := range []string{"shards", "local", "exchange_rows"} {
					if _, ok := sp.Num[k]; ok {
						t.Errorf("par=%d %s: %s span carries %s", par, mc.name, sp.Kind, k)
					}
				}
			}
			if got := sigsOf(spans, all, nil); !reflect.DeepEqual(got, want) {
				t.Errorf("par=%d %s: span stream changed after Shard(4)\n got %+v\nwant %+v", par, mc.name, got, want)
			}
		}
	}
}

// TestShardedBudgetAbort: a join over the big fixture stops at the tuple cap
// like every other, and reports ErrBudget, not a wrong answer.
func TestShardedBudgetAbort(t *testing.T) {
	e := New(bigFixture()).NewExec(ExecConfig{})
	_, _, err := e.ExecTree(bigQuery(), plan.NewJoin(leaf("BR"), leaf("BS")), &Budget{MaxTuples: 100})
	if err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

// TestUnshardedBuildReadsStoredRows: an unfiltered build leaf is read in
// place. Collecting it takes nothing from the row-header free list and hands over
// the stored rows themselves, with the accounting of a drain; and since the
// scope never lists them, a poisoned Release leaves the stored table as it
// was.
func TestUnshardedBuildReadsStoredRows(t *testing.T) {
	defer func(was bool) { poisonReleased = was }(poisonReleased)
	poisonReleased = true
	cat := matrixCatalog(1)
	stored := cat.MustGet("B")
	was := cloneRows(stored.Rows)
	q := matrixCases()[0].q // a ⋈ b
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, par := range []int{1, 4} {
		runtime.GOMAXPROCS(par)
		ex := New(cat).NewExec(ExecConfig{})
		res := &ExecResult{Counts: map[string]float64{}, Times: map[string]time.Duration{}}
		it, _, err := ex.open(q, leaf("b"), &Budget{}, res, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		before := freeRows.count()
		side, err := it.collect(&ex.held)
		if err != nil {
			t.Fatal(err)
		}
		after := freeRows.count()
		if took := after.Hits + after.Misses - before.Hits - before.Misses; took != 0 {
			t.Errorf("par=%d: collecting the build leaf took %d row-header buffers from the free list", par, took)
		}
		if unsafe.SliceData(side) != unsafe.SliceData(stored.Rows) || len(side) != stored.Count() {
			t.Errorf("par=%d: the build side is a copy of the stored rows, not the rows themselves", par)
		}
		if n := float64(stored.Count()); res.Counts["b"] != n || res.Produced != n {
			t.Errorf("par=%d: Counts[b] = %v, Produced = %v; a drain records %v for both", par, res.Counts["b"], res.Produced, n)
		}
		if _, _, err := ex.ExecTree(q, plan.NewJoin(leaf("a"), leaf("b")), &Budget{}); err != nil {
			t.Fatal(err)
		}
		ex.Release()
		if !table.IdenticalRows(stored.Rows, was) {
			t.Fatalf("par=%d: the stored table changed after a poisoned Release", par)
		}
	}
}
