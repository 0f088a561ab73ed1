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

// shardCounts spans the layouts the exchange paths must be invisible under:
// unsharded, tiny, and wider than some tables' distinct first-column values.
var shardCounts = []int{1, 2, 4, 16}

// TestShardedMatchesUnsharded is the exchange determinism gate: for any
// shard count, batch size, and worker count, every tree shape — the
// co-partitioned build (S is joined on its first column), the reshuffled
// build (R joined on its second column b), deep trees, and Σ roots — must
// be bit-identical to the unsharded serial materialized run: same rows in
// the same order, same counts, same produced charge, same Σ estimates.
func TestShardedMatchesUnsharded(t *testing.T) {
	q := rstQuery()
	trees := map[string]*plan.Node{
		"copart":     plan.NewJoin(leaf("R"), leaf("S")),
		"reshuffle":  plan.NewJoin(leaf("T"), leaf("R")),
		"three-way":  plan.NewJoin(plan.NewJoin(leaf("R"), leaf("S")), leaf("T")),
		"right-deep": plan.NewJoin(leaf("T"), plan.NewJoin(leaf("S"), leaf("R"))),
		"sigma-join": plan.NewJoin(leaf("R"), leaf("S")).WithSigma(),
		"sigma-leaf": leaf("R").WithSigma(),
		"cross":      plan.NewJoin(leaf("S"), leaf("T")),
	}
	for name, tree := range trees {
		refRel, refRes, refProduced := execAt(t, fixture(), q, tree, 1<<30, 1)
		for _, s := range shardCounts {
			for _, batch := range []int{1, 4096, 1 << 30} {
				for _, par := range []int{1, 4} {
					cat := fixture()
					cat.Shard(s)
					rel, res, produced := execAt(t, cat, q, tree, batch, par)
					if !table.IdenticalRows(rel.Rows, refRel.Rows) {
						t.Errorf("%s S=%d batch=%d par=%d: rows differ from unsharded (%d vs %d)",
							name, s, batch, par, rel.Count(), refRel.Count())
					}
					if !reflect.DeepEqual(res.Counts, refRes.Counts) {
						t.Errorf("%s S=%d batch=%d par=%d: counts %v, want %v",
							name, s, batch, par, res.Counts, refRes.Counts)
					}
					if res.Produced != refRes.Produced || produced != refProduced {
						t.Errorf("%s S=%d batch=%d par=%d: produced %v/%v, want %v/%v",
							name, s, batch, par, res.Produced, produced, refRes.Produced, refProduced)
					}
					if !reflect.DeepEqual(res.Sigma, refRes.Sigma) {
						t.Errorf("%s S=%d batch=%d par=%d: sigma observations diverged",
							name, s, batch, par)
					}
				}
			}
		}
	}
}

// TestShardedLargeParallel crosses the fan-out thresholds: the big fixture's
// co-partitioned join builds, scans and runs its Σ pass over several workers
// on every layout.
func TestShardedLargeParallel(t *testing.T) {
	q := bigQuery()
	tree := plan.NewJoin(leaf("BR"), leaf("BS")).WithSigma()
	refRel, refRes, refProduced := execAt(t, bigFixture(), q, tree, 1<<30, 1)
	for _, s := range shardCounts {
		for _, par := range []int{1, 4} {
			cat := bigFixture()
			cat.Shard(s)
			rel, res, produced := execAt(t, cat, q, tree, 4096, par)
			if !table.IdenticalRows(rel.Rows, refRel.Rows) {
				t.Errorf("S=%d par=%d: rows differ from unsharded", s, par)
			}
			if res.Produced != refRes.Produced || produced != refProduced {
				t.Errorf("S=%d par=%d: produced %v/%v, want %v/%v",
					s, par, res.Produced, produced, refRes.Produced, refProduced)
			}
			if !reflect.DeepEqual(res.Sigma, refRes.Sigma) {
				t.Errorf("S=%d par=%d: sigma estimates diverged", s, par)
			}
		}
	}
}

// TestShardedBuildSideSelections pushes a selection onto the co-partitioned
// build side, filtered serially and fanned out, and still matches the
// unsharded answer exactly.
func TestShardedBuildSideSelections(t *testing.T) {
	q := query.NewBuilder("bigsel").
		Rel("BR", "BR").Rel("BS", "BS").
		Join(expr.Identity("BR.a"), expr.Identity("BS.k")).
		Select(expr.Identity("BS.k"), value.Int(37)).
		MustBuild()
	tree := plan.NewJoin(leaf("BR"), leaf("BS"))
	refRel, refRes, _ := execAt(t, bigFixture(), q, tree, 1<<30, 1)
	for _, s := range shardCounts {
		for _, par := range []int{1, 4} {
			cat := bigFixture()
			cat.Shard(s)
			rel, res, _ := execAt(t, cat, q, tree, 4096, par)
			if !table.IdenticalRows(rel.Rows, refRel.Rows) {
				t.Errorf("S=%d par=%d: filtered build rows differ", s, par)
			}
			if res.Produced != refRes.Produced {
				t.Errorf("S=%d par=%d: produced %v, want %v", s, par, res.Produced, refRes.Produced)
			}
		}
	}
}

// exchangeAttrs are the attributes a hash build carries on a sharded catalog
// alone: what the layout implies the build would move (noteExchange).
var exchangeAttrs = map[string]bool{"shards": true, "local": true, "exchange_rows": true}

// TestShardedSpansMatchUnsharded: a shard layout is a property of the plan,
// not a second engine. At S ∈ {2, 4, 16} every matrix case's span stream —
// every kind, KWorker included, name, parent, rows, produced and attribute but
// the exchangeAttrs — equals S = 1's at the same batch size and worker count,
// and no span of kind "shard" appears. The exchange attributes and counters
// are checked on their own: a co-partitioned build carries local=1, a
// reshuffled one local=0 with the moved-row count, the monsoon.exchange.*
// counters see both, and at S=1 none of it appears.
func TestShardedSpansMatchUnsharded(t *testing.T) {
	all := func(*obs.Span) bool { return true }
	spansAt := func(s, par int, mc matrixCase) []*obs.Span {
		col := &obs.Collector{}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
		ex := New(matrixCatalog(matrixSeeds[0], s)).NewExec(ExecConfig{Obs: obs.NewTracer(col)})
		for _, tree := range mc.trees {
			if _, _, err := ex.ExecTree(mc.q, tree, &Budget{}); err != nil {
				t.Fatalf("S=%d par=%d %s %s: %v", s, par, mc.name, tree, err)
			}
		}
		return col.Spans
	}
	for _, mc := range matrixCases() {
		for _, par := range []int{1, 7} {
			want := sigsOf(spansAt(1, par, mc), all, exchangeAttrs)
			for _, s := range []int{2, 4, 16} {
				spans := spansAt(s, par, mc)
				for _, sp := range spans {
					if sp.Kind == "shard" {
						t.Errorf("S=%d par=%d %s: a %q span %s", s, par, mc.name, sp.Kind, sp.Name)
					}
				}
				if got := sigsOf(spans, all, exchangeAttrs); !reflect.DeepEqual(got, want) {
					t.Errorf("S=%d par=%d %s: span stream differs from S=1\n got %+v\nwant %+v", s, par, mc.name, got, want)
				}
			}
		}
	}

	run := func(s int, tree *plan.Node) (*obs.Collector, *obs.Registry) {
		cat := fixture()
		cat.Shard(s)
		col := &obs.Collector{}
		reg := obs.NewRegistry()
		e := New(cat).NewExec(ExecConfig{Obs: obs.NewTracer(col), Metrics: reg})
		if _, _, err := e.ExecTree(rstQuery(), tree, &Budget{}); err != nil {
			t.Fatal(err)
		}
		return col, reg
	}
	copart := plan.NewJoin(leaf("R"), leaf("S")).WithSigma()
	col, reg := run(4, copart)
	builds := col.SpansOf(obs.KHashBuild)
	if len(builds) != 1 {
		t.Fatalf("got %d KHashBuild spans, want 1", len(builds))
	}
	if sp := builds[0]; sp.Num["shards"] != 4 || sp.Num["local"] != 1 {
		t.Errorf("co-partitioned build attrs = %v, want shards=4 local=1", sp.Num)
	}
	if _, ok := builds[0].Num["exchange_rows"]; ok {
		t.Error("co-partitioned build must not report exchange_rows")
	}
	if got := reg.Counter("monsoon.exchange.joins.local").Value(); got != 1 {
		t.Errorf("joins.local = %d, want 1", got)
	}
	if got := reg.Counter("monsoon.exchange.joins.reshuffle").Value(); got != 0 {
		t.Errorf("joins.reshuffle = %d, want 0", got)
	}

	// R joined on its second column b: the build side is R (1000 rows, all
	// keys non-NULL), so the build must reshuffle all 1000 rows.
	col, reg = run(4, plan.NewJoin(leaf("T"), leaf("R")))
	builds = col.SpansOf(obs.KHashBuild)
	if len(builds) != 1 {
		t.Fatalf("got %d KHashBuild spans, want 1", len(builds))
	}
	if sp := builds[0]; sp.Num["shards"] != 4 || sp.Num["local"] != 0 || sp.Num["exchange_rows"] != 1000 {
		t.Errorf("reshuffle build attrs = %v, want shards=4 local=0 exchange_rows=1000", sp.Num)
	}
	if got := reg.Counter("monsoon.exchange.joins.reshuffle").Value(); got != 1 {
		t.Errorf("joins.reshuffle = %d, want 1", got)
	}
	if got := reg.Counter("monsoon.exchange.rows").Value(); got != 1000 {
		t.Errorf("exchange.rows = %d, want 1000", got)
	}

	// S=1 keeps the legacy telemetry: no exchange attrs, no counters.
	col, reg = run(1, copart)
	for _, sp := range col.Spans {
		for k := range exchangeAttrs {
			if _, ok := sp.Num[k]; ok {
				t.Errorf("unsharded %s span carries a %s attribute", sp.Kind, k)
			}
		}
	}
	for _, name := range []string{"monsoon.exchange.joins.local", "monsoon.exchange.joins.reshuffle", "monsoon.exchange.rows"} {
		if got := reg.Counter(name).Value(); got != 0 {
			t.Errorf("unsharded run bumped %s to %d", name, got)
		}
	}
}

// TestShardedMaterializedReuseNotLocal pins the Re-store guard: a leaf that
// was materialized in a prior step is served from the reuse path, whose rows
// are not shard-partitioned, so the join must reshuffle — and still match
// the unsharded two-step run exactly.
func TestShardedMaterializedReuseNotLocal(t *testing.T) {
	q := rstQuery()
	twoStep := func(cat *table.Catalog, reg *obs.Registry) *table.Relation {
		e := New(cat).NewExec(ExecConfig{Metrics: reg})
		if _, _, err := e.ExecTree(q, leaf("S"), &Budget{}); err != nil {
			t.Fatal(err)
		}
		rel, _, err := e.ExecTree(q, plan.NewJoin(leaf("R"), leaf("S")), &Budget{})
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	ref := twoStep(fixture(), nil)
	cat := fixture()
	cat.Shard(4)
	reg := obs.NewRegistry()
	rel := twoStep(cat, reg)
	if !table.IdenticalRows(rel.Rows, ref.Rows) {
		t.Error("sharded two-step run diverged from unsharded")
	}
	if got := reg.Counter("monsoon.exchange.joins.local").Value(); got != 0 {
		t.Errorf("reused build counted as shard-local (%d)", got)
	}
	if got := reg.Counter("monsoon.exchange.joins.reshuffle").Value(); got != 1 {
		t.Errorf("joins.reshuffle = %d, want 1", got)
	}
}

// TestShardedBudgetAbort: a co-partitioned join on a sharded catalog stops
// at the tuple cap like every other, and reports ErrBudget, not a wrong
// answer.
func TestShardedBudgetAbort(t *testing.T) {
	cat := bigFixture()
	cat.Shard(4)
	e := New(cat).NewExec(ExecConfig{})
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
	cat := matrixCatalog(1, 1)
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
