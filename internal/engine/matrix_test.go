package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"monsoon/internal/cost"
	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/stats"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

var (
	matrixSeeds   = []int64{1, 42}
	matrixBatches = []int{1, 7, 4096, 1 << 30}
	matrixWorkers = []int{1, 2, 7}
	matrixShards  = []int{1, 2, 4, 16}
)

// matrixCatalog generates four tables whose first column is a join key drawn
// from a shared domain, with NULLs and duplicates: A is large enough
// (≥ 8,192 rows) that scans, probes and Σ passes over it fan out at w > 1 —
// and a build over it does even after the selection f = 0, which keeps seven
// rows in ten — B large enough that a build over it does, C and D small
// enough to cross.
func matrixCatalog(seed int64, shards int) *table.Catalog {
	rng := rand.New(rand.NewSource(seed))
	cat := table.NewCatalog()
	for _, spec := range []struct {
		name string
		rows int
	}{
		{"A", 8192 + rng.Intn(1000)},
		{"B", 4500 + rng.Intn(600)},
		{"C", 40 + rng.Intn(30)},
		{"D", 300 + rng.Intn(200)},
	} {
		b := table.NewBuilder(spec.name, table.NewSchema(
			table.Column{Table: spec.name, Name: "k", Kind: value.KindInt},
			table.Column{Table: spec.name, Name: "v", Kind: value.KindInt},
			table.Column{Table: spec.name, Name: "f", Kind: value.KindInt},
		))
		for i := 0; i < spec.rows; i++ {
			k := value.Int(int64(rng.Intn(2400)))
			if rng.Intn(20) == 0 {
				k = value.Null()
			}
			f := 0
			if rng.Intn(10) >= 7 {
				f = 1 + rng.Intn(9)
			}
			b.Add(k, value.Int(int64(rng.Intn(50))), value.Int(int64(f)))
		}
		cat.Put(b.Build())
	}
	cat.Shard(shards)
	return cat
}

// matrixCase is a sequence of trees run on one Exec scope, so a later tree
// can reuse what an earlier one materialized.
type matrixCase struct {
	name  string
	q     *query.Query
	trees []*plan.Node
}

func matrixCases() []matrixCase {
	ab := query.NewBuilder("ab").Rel("a", "A").Rel("b", "B").
		Join(expr.Identity("a.k"), expr.Identity("b.k")).
		Join(expr.HashMod("a.v", 3), expr.HashMod("b.v", 3)).
		MustBuild()
	abLong := query.NewBuilder("ablong").Rel("a", "A").Rel("b", "B").
		Join(expr.HashMod("a.v", 50), expr.HashMod("b.v", 50)).
		Join(expr.Identity("b.k"), expr.Identity("a.k")).
		MustBuild()
	baSel := query.NewBuilder("basel").Rel("a", "A").Rel("b", "B").
		Join(expr.Identity("b.k"), expr.Identity("a.k")).
		Select(expr.Identity("a.f"), value.Int(0)).
		MustBuild()
	dc := query.NewBuilder("dc").Rel("d", "D").Rel("c", "C").
		Select(expr.SumMod("d.v", "c.v", 7), value.Int(3)).
		MustBuild()
	abc := query.NewBuilder("abc").Rel("a", "A").Rel("b", "B").Rel("c", "C").
		Join(expr.Identity("a.k"), expr.Identity("b.k")).
		Join(expr.Identity("c.k"), expr.Identity("a.k")).
		MustBuild()
	expand := query.NewBuilder("expand").Rel("b", "B").Rel("c", "C").Rel("d", "D").
		Join(expr.Identity("b.f"), expr.Identity("c.f")).
		Join(expr.Identity("d.k"), expr.Identity("b.k")).
		MustBuild()
	return []matrixCase{
		// Hash join with a second key predicate under a Σ root; b is an
		// unfiltered build leaf, its stored rows handed over without a drain
		// on every layout (co-partitioned, local, at S > 1).
		{"residual-sigma", ab, []*plan.Node{plan.NewJoin(leaf("a"), leaf("b")).WithSigma()}},
		// Two key predicates with the table keyed on the one whose chains are
		// some 90 rows long: the probe passes over nearly all of each chain
		// on the other's filter hash (key_terms = 2 in every cell), and the
		// build, keyed on a UDF, is a reshuffle at S > 1.
		{"long-chains", abLong, []*plan.Node{plan.NewJoin(leaf("a"), leaf("b"))}},
		// A pushed-down selection on the co-partitioned build leaf.
		{"filtered-build", baSel, []*plan.Node{plan.NewJoin(leaf("b"), leaf("a"))}},
		// No predicate separates d and c: a nested loop with a residual.
		{"nested-loop", dc, []*plan.Node{plan.NewJoin(leaf("d"), leaf("c"))}},
		// b is materialized first and then reused as the build side, which
		// the storage layout no longer serves: a reshuffle at S > 1.
		{"reuse", ab, []*plan.Node{leaf("b"), plan.NewJoin(leaf("a"), leaf("b"))}},
		// The build side is itself a join, probed by a small table.
		{"right-deep", abc, []*plan.Node{plan.NewJoin(leaf("c"), plan.NewJoin(leaf("a"), leaf("b")))}},
		// The probe side is a join, whose slabs go back to the free list
		// batch by batch while the parent probes.
		{"left-deep", abc, []*plan.Node{plan.NewJoin(plan.NewJoin(leaf("a"), leaf("b")), leaf("c"))}},
		// The probe side is a join that expands its input some 25-fold over
		// skewed keys (f = 0 in seven rows in ten), so as a streaming child it
		// probes each batch of d in slices and resumes the rest on the next
		// pull, at every batch size but 1 << 30.
		{"expanding", expand, []*plan.Node{plan.NewJoin(plan.NewJoin(leaf("b"), leaf("c")), leaf("d"))}},
		// A Σ pass over enough rows to fan out.
		{"sigma-leaf", ab, []*plan.Node{leaf("a").WithSigma()}},
	}
}

// spanSig is what the matrix pins of one span. IDs are compared as ranks
// among the retained spans, since the dropped kinds consume IDs too.
type spanSig struct {
	Kind, Name      string
	ID, Parent      int
	RowsIn, RowsOut int
	Produced        float64
	Num             map[string]float64
	Str             map[string]string
}

// configAttrs are the span attributes that describe how an operator's loop
// was spread over workers and shards, not what it computed.
var configAttrs = map[string]bool{
	"workers": true, "worker_spans": true, "shards": true, "local": true, "exchange_rows": true,
}

// spanSigs reduces a span stream, in emission order, to the part that must
// not depend on batch size, worker count or shard layout: everything but the
// KWorker spans and the configAttrs.
func spanSigs(spans []*obs.Span) []spanSig {
	return sigsOf(spans, func(sp *obs.Span) bool { return sp.Kind != obs.KWorker }, configAttrs)
}

// sigsOf reduces the spans keep accepts to their signatures, less the
// attributes drop names.
func sigsOf(spans []*obs.Span, keep func(*obs.Span) bool, drop map[string]bool) []spanSig {
	var ids []int
	for _, sp := range spans {
		if keep(sp) {
			ids = append(ids, sp.ID)
		}
	}
	sort.Ints(ids)
	rank := make(map[int]int, len(ids))
	for i, id := range ids {
		rank[id] = i + 1
	}
	var out []spanSig
	for _, sp := range spans {
		if rank[sp.ID] == 0 {
			continue
		}
		sig := spanSig{Kind: sp.Kind, Name: sp.Name, ID: rank[sp.ID], Parent: rank[sp.Parent],
			RowsIn: sp.RowsIn, RowsOut: sp.RowsOut, Produced: sp.Produced,
			Num: map[string]float64{}, Str: sp.Str}
		for k, v := range sp.Num {
			if !drop[k] {
				sig.Num[k] = v
			}
		}
		out = append(out, sig)
	}
	return out
}

// matrixRun is everything one cell observed.
type matrixRun struct {
	Rows     [][]table.Row
	Produced []float64
	Counts   []map[string]float64
	Sigma    [][]SigmaObs
	Budget   float64
	Spans    []spanSig
}

// same compares two cells: the rows by value (table.IdenticalRows), the rest
// by reflect.DeepEqual, which over rows would compare string data pointers.
func (r matrixRun) same(o matrixRun) bool {
	if !slices.EqualFunc(r.Rows, o.Rows, table.IdenticalRows) {
		return false
	}
	r.Rows, o.Rows = nil, nil
	return reflect.DeepEqual(r, o)
}

// runMatrixCase runs one cell and also reports whether any operator in it
// fanned out over more than one worker.
func runMatrixCase(t *testing.T, cat *table.Catalog, mc matrixCase, batch, par int) (run matrixRun, fanned bool) {
	t.Helper()
	col := &obs.Collector{}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
	ex := New(cat).NewExec(ExecConfig{Obs: obs.NewTracer(col), testBatch: batch})
	budget := &Budget{}
	for _, tree := range mc.trees {
		rel, res, err := ex.ExecTree(mc.q, tree, budget)
		if err != nil {
			t.Fatalf("%s %s: %v", mc.name, tree, err)
		}
		run.Rows = append(run.Rows, rel.Rows)
		run.Produced = append(run.Produced, res.Produced)
		run.Counts = append(run.Counts, res.Counts)
		run.Sigma = append(run.Sigma, res.Sigma)
	}
	run.Budget = budget.Produced()
	run.Spans = spanSigs(col.Spans)
	return run, len(col.SpansOf(obs.KWorker)) > 0
}

// TestEngineConfigMatrix is the engine's one-path guarantee: how an
// operator's loop is spread over batches, workers and shard layouts changes
// nothing an optimizer or a client can observe. Every cell of testBatch ×
// GOMAXPROCS × shard count must equal the (1 << 30, 1, 1) reference in rows
// and their order, Produced, Counts, Σ observations, the budget total and the
// span stream (less the configuration-dependent spans and attributes), and a
// tuple budget that trips mid-tree must abort every cell the same way.
func TestEngineConfigMatrix(t *testing.T) {
	t.Run("bad-column", matrixBadColumn)
	seeds := matrixSeeds
	if testing.Short() {
		seeds = seeds[:1]
	}
	fanned := false
	for _, seed := range seeds {
		cats := make(map[int]*table.Catalog)
		for _, s := range matrixShards {
			cats[s] = matrixCatalog(seed, s)
		}
		for _, mc := range matrixCases() {
			ref, _ := runMatrixCase(t, cats[1], mc, 1<<30, 1)
			if n := len(ref.Rows[len(ref.Rows)-1]); n == 0 {
				t.Fatalf("seed %d %s: empty reference answer proves nothing", seed, mc.name)
			}
			for _, s := range matrixShards {
				for _, batch := range matrixBatches {
					for _, par := range matrixWorkers {
						cell := fmt.Sprintf("seed %d %s S=%d batch=%d par=%d", seed, mc.name, s, batch, par)
						got, wide := runMatrixCase(t, cats[s], mc, batch, par)
						fanned = fanned || wide
						if !reflect.DeepEqual(got.Spans, ref.Spans) {
							t.Errorf("%s: span stream differs from the reference\n got %+v\nwant %+v", cell, got.Spans, ref.Spans)
							got.Spans = ref.Spans
						}
						if !got.same(ref) {
							t.Errorf("%s: rows, Produced, Counts, Σ or budget total differ from the reference", cell)
						}
						checkBudgetAbort(t, cell, cats[s], mc, batch, par, ref)
					}
				}
			}
		}
	}
	if !fanned {
		t.Error("no cell fanned out: the matrix never ran an operator at w > 1")
	}
}

// TestMatrixAfterRelease: a released scope is as good as a fresh one. One
// scope per configuration runs every matrix case in turn and releases it
// before the next, with released slabs poisoned, so each case's slabs, join
// tables and row buffers are largely what the case before gave back; every
// tree must return the rows, in order, of the same case on a fresh scope.
func TestMatrixAfterRelease(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer func(was bool) { poisonReleased = was }(poisonReleased)
	poisonReleased = true
	for _, s := range []int{1, 4} {
		cat := matrixCatalog(matrixSeeds[0], s)
		for _, batch := range matrixBatches {
			for _, par := range matrixWorkers {
				ex := New(cat).NewExec(ExecConfig{testBatch: batch})
				for _, mc := range matrixCases() {
					fresh, _ := runMatrixCase(t, cat, mc, batch, par)
					runtime.GOMAXPROCS(par)
					for ti, tree := range mc.trees {
						rel, _, err := ex.ExecTree(mc.q, tree, &Budget{})
						if err != nil {
							t.Fatalf("S=%d batch=%d par=%d %s %s: %v", s, batch, par, mc.name, tree, err)
						}
						if !table.IdenticalRows(rel.Rows, fresh.Rows[ti]) {
							t.Errorf("S=%d batch=%d par=%d %s %s: %d rows after a release, %d on a fresh scope, or another order",
								s, batch, par, mc.name, tree, len(rel.Rows), len(fresh.Rows[ti]))
						}
					}
					ex.Release()
				}
			}
		}
	}
}

// checkBudgetAbort caps the tuple budget at half of what the case's last
// tree needs, which falls inside one of its operators: the run must fail with
// ErrBudget, record no cardinality for the aborted root, and record only
// complete cardinalities below it.
func checkBudgetAbort(t *testing.T, cell string, cat *table.Catalog, mc matrixCase, batch, par int, ref matrixRun) {
	t.Helper()
	last := len(mc.trees) - 1
	cp := *mc.trees[last]
	cp.Sigma = false
	tree := &cp
	need := ref.Produced[last]
	if mc.trees[last].Sigma {
		need -= float64(len(ref.Rows[last]))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
	ex := New(cat).NewExec(ExecConfig{testBatch: batch})
	for _, earlier := range mc.trees[:last] {
		if _, _, err := ex.ExecTree(mc.q, earlier, &Budget{}); err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
	}
	_, res, err := ex.ExecTree(mc.q, tree, &Budget{MaxTuples: need / 2})
	if !errors.Is(err, ErrBudget) {
		t.Errorf("%s capped: err = %v, want ErrBudget", cell, err)
		return
	}
	if _, ok := res.Counts[tree.Key()]; ok {
		t.Errorf("%s capped: aborted root recorded a cardinality", cell)
	}
	for key, n := range res.Counts {
		if n != ref.Counts[last][key] {
			t.Errorf("%s capped: truncated cardinality %v for %s, complete is %v", cell, n, key, ref.Counts[last][key])
		}
	}
}

// matrixBadColumn: a predicate over a column that does not exist is a
// per-query error, the same one on every shard layout — whether it is a
// residual at the join (where the co-partitioned build leaf has already
// opened) or a selection pushed down to that leaf.
func matrixBadColumn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	queries := map[string]*query.Query{
		"residual": query.NewBuilder("badres").Rel("a", "A").Rel("b", "B").
			Join(expr.Identity("a.k"), expr.Identity("b.k")).
			Join(expr.Identity("b.nosuch"), expr.Identity("a.nosuch2")).
			MustBuild(),
		"selection": query.NewBuilder("badsel").Rel("a", "A").Rel("b", "B").
			Join(expr.Identity("a.k"), expr.Identity("b.k")).
			Select(expr.Identity("b.nosuch"), value.Int(1)).
			MustBuild(),
	}
	tree := plan.NewJoin(leaf("a"), leaf("b"))
	for name, q := range queries {
		var want string
		for _, s := range []int{1, 4} {
			for _, par := range matrixWorkers {
				runtime.GOMAXPROCS(par)
				ex := New(matrixCatalog(1, s)).NewExec(ExecConfig{})
				_, res, err := ex.ExecTree(q, tree, &Budget{})
				if err == nil {
					t.Fatalf("%s S=%d par=%d: no error", name, s, par)
				}
				if want == "" {
					want = err.Error()
				}
				if err.Error() != want {
					t.Errorf("%s S=%d par=%d: error %q, want %q", name, s, par, err, want)
				}
				if len(res.Counts) != 0 {
					t.Errorf("%s S=%d par=%d: failed open recorded cardinalities %v", name, s, par, res.Counts)
				}
			}
		}
	}
}

// TestMatrixReferenceMatchesOracle: the matrix proves that configurations
// agree with each other; this proves the reference they agree with is right.
// For every case, the (1 << 30, 1, 1) cell's root rows equal the naive
// oracle's as a multiset, and its Counts hold the oracle's cardinality for
// every node of every tree. The oracle pays for every pair of A × B, so it runs on the
// first matrix seed only.
func TestMatrixReferenceMatchesOracle(t *testing.T) {
	seed := matrixSeeds[0]
	cat := matrixCatalog(seed, 1)
	memo := map[string][]table.Row{}
	for _, mc := range matrixCases() {
		ref, _ := runMatrixCase(t, cat, mc, 1<<30, 1)
		for ti, tree := range mc.trees {
			cell := fmt.Sprintf("seed %d %s %s", seed, mc.name, tree)
			keys := map[string]bool{}
			var walk func(n *plan.Node)
			walk = func(n *plan.Node) {
				keys[n.Key()] = true
				aliases := leafAliases(n)
				id := mc.q.Name + ":" + strings.Join(aliases, ",")
				rows, ok := memo[id]
				if !ok {
					rows = naiveRows(t, mc.q, cat, aliases)
					memo[id] = rows
				}
				if n == tree && !sameMultiset(ref.Rows[ti], rows) {
					t.Errorf("%s: %d root rows, the oracle's %d are a different multiset", cell, len(ref.Rows[ti]), len(rows))
				}
				if got, ok := ref.Counts[ti][n.Key()]; !ok || got != float64(len(rows)) {
					t.Errorf("%s: Counts[%s] = %v (recorded %v), oracle %d", cell, n.Key(), got, ok, len(rows))
				}
				if !n.IsLeaf() {
					walk(n.Left)
					walk(n.Right)
				}
			}
			walk(tree)
			if len(ref.Counts[ti]) != len(keys) {
				t.Errorf("%s: Counts has %d keys, the tree %d nodes", cell, len(ref.Counts[ti]), len(keys))
			}
		}
	}
}

// leafAliases lists a subtree's aliases in the column order of its rows.
func leafAliases(n *plan.Node) []string {
	var out []string
	for _, l := range n.Leaves() {
		out = append(out, l.Leaf.Names()...)
	}
	return out
}

// naiveTerm is one predicate term as the oracle evaluates it: once per row of
// the product so far (side 0), once per row of the table joining it (side 1),
// or per pair, over the joined row (side 2).
type naiveTerm struct {
	side int
	vals []value.Value
	b    *expr.Binding
}

func (nt *naiveTerm) at(i, j int, joined table.Row) value.Value {
	switch nt.side {
	case 0:
		return nt.vals[i]
	case 1:
		return nt.vals[j]
	}
	return nt.b.Eval(joined)
}

// naiveRows is the oracle, a deliberately naive evaluator that shares no code
// with the engine's kernels: the cross product of the base tables of aliases,
// in that order, keeping a combination only when every join predicate and
// selection over the aliases holds by Value.Equal. To stay affordable it
// tests each predicate as soon as the product covers what it reads, which
// keeps the same combinations, and evaluates a term that reads one side once
// per row of that side.
func naiveRows(t *testing.T, q *query.Query, cat *table.Catalog, aliases []string) []table.Row {
	t.Helper()
	schema, rows := table.NewSchema(), []table.Row{{}}
	for i, a := range aliases {
		tbl, _ := q.TableOf(a)
		base := cat.MustGet(tbl)
		bs := base.Schema.Renamed(a)
		before, after, own := query.NewAliasSet(aliases[:i]...), query.NewAliasSet(aliases[:i+1]...), query.NewAliasSet(a)
		joined := schema.Concat(bs)
		pairwise := false
		term := func(tm *query.Term) naiveTerm {
			eval := func(s *table.Schema, rs []table.Row) []value.Value {
				b, ok := tm.Fn.Bind(s)
				if !ok {
					t.Fatalf("oracle: %s does not bind on %s", tm, s)
				}
				vals := make([]value.Value, len(rs))
				for k, r := range rs {
					vals[k] = b.Eval(r)
				}
				return vals
			}
			switch {
			case tm.Aliases.SubsetOf(before):
				return naiveTerm{side: 0, vals: eval(schema, rows)}
			case tm.Aliases.SubsetOf(own):
				return naiveTerm{side: 1, vals: eval(bs, base.Rows)}
			}
			b, ok := tm.Fn.Bind(joined)
			if !ok {
				t.Fatalf("oracle: %s does not bind on %s", tm, joined)
			}
			pairwise = true
			return naiveTerm{side: 2, b: b}
		}
		type check struct {
			l, r naiveTerm // r unused for a selection
			k    value.Value
			sel  bool
		}
		var checks []check
		for _, p := range q.Joins {
			if p.ApplicableAt(after) && !p.ApplicableAt(before) {
				checks = append(checks, check{l: term(p.L), r: term(p.R)})
			}
		}
		for _, s := range q.Sels {
			if s.T.Aliases.SubsetOf(after) && !s.T.Aliases.SubsetOf(before) {
				checks = append(checks, check{l: term(s.T), k: s.Const, sel: true})
			}
		}
		var out []table.Row
		buf := make(table.Row, len(joined.Cols))
		for li, lr := range rows {
		pairs:
			for ri, rr := range base.Rows {
				if pairwise {
					copy(buf, lr)
					copy(buf[len(lr):], rr)
				}
				for k := range checks {
					c := &checks[k]
					w := c.k
					if !c.sel {
						w = c.r.at(li, ri, buf)
					}
					if !c.l.at(li, ri, buf).Equal(w) {
						continue pairs
					}
				}
				out = append(out, append(append(make(table.Row, 0, len(buf)), lr...), rr...))
			}
		}
		schema, rows = joined, out
	}
	return rows
}

// sameMultiset compares two row lists ignoring order, values by identity.
func sameMultiset(a, b []table.Row) bool {
	if len(a) != len(b) {
		return false
	}
	enc := func(r table.Row) string {
		var sb strings.Builder
		for _, v := range r {
			fmt.Fprintf(&sb, "%d:%s\x00", v.Kind(), v)
		}
		return sb.String()
	}
	n := map[string]int{}
	for _, r := range a {
		n[enc(r)]++
	}
	for _, r := range b {
		if n[enc(r)]--; n[enc(r)] < 0 {
			return false
		}
	}
	return true
}

// TestEngineCostAgreement: for every matrix tree at S ∈ {1, 4}, the join the
// engine runs is the join the cost model prices. A join is a hash build
// exactly where plan.Node.LeadKey finds a key predicate; the span's key_terms
// and residuals are what cost.ExplainAnalyze prints; and a sharded build is
// local exactly when the Deriver prices no exchange for it. One divergence is
// pinned as expected: a single-alias leaf reused from a materialized
// intermediate, which the engine reshuffles and the Deriver, blind to the
// engine's store, prices shard-local. A fix shows up here as a changed case.
func TestEngineCostAgreement(t *testing.T) {
	pinned := 0
	for _, s := range []int{1, 4} {
		cat := matrixCatalog(1, s)
		for _, mc := range matrixCases() {
			col := &obs.Collector{}
			ex := New(cat).NewExec(ExecConfig{Obs: obs.NewTracer(col)})
			for _, tree := range mc.trees {
				if _, _, err := ex.ExecTree(mc.q, tree, &Budget{}); err != nil {
					t.Fatalf("S=%d %s %s: %v", s, mc.name, tree, err)
				}
			}
			spans := map[string]*obs.Span{}
			for _, sp := range col.Spans {
				if sp.Kind == obs.KHashBuild || sp.Kind == obs.KNestedLoop {
					spans[sp.Name] = sp
				}
			}
			st := stats.New()
			ex.Engine().SeedBaseStats(mc.q, st)
			// Exchange is the only priced kind, so a subtree's cost is the
			// rows its joins move.
			dv := &cost.Deriver{Q: mc.q, St: st, Miss: cost.DefaultMiss(0.1), Layout: cat,
				Profile: &cost.CostProfile{Exchange: cost.Rate{SecondsPerObject: 1}}}
			reused := map[string]bool{}
			for _, tree := range mc.trees {
				explain := cost.ExplainAnalyze(mc.q, tree, nil, nil, nil, nil)
				var walk func(n *plan.Node)
				walk = func(n *plan.Node) {
					if n.IsLeaf() {
						return
					}
					walk(n.Left)
					walk(n.Right)
					cell := fmt.Sprintf("S=%d %s %s", s, mc.name, n.Key())
					sp := spans[n.Key()]
					if sp == nil {
						t.Fatalf("%s: no hash-build or nested-loop span", cell)
					}
					if bt, _ := n.LeadKey(mc.q); (sp.Kind == obs.KHashBuild) != (bt != nil) {
						t.Errorf("%s: the engine ran %s, the join rule's lead key is %v", cell, sp.Kind, bt)
					}
					shape := fmt.Sprintf(" residuals=%v ", sp.Num["residuals"])
					if k, ok := sp.Num["key_terms"]; ok {
						shape = fmt.Sprintf(" key_terms=%v", k) + shape
					}
					if !strings.Contains(explain, "⋈ ["+n.Key()+"]") || !strings.Contains(explainLine(explain, n.Key()), shape) {
						t.Errorf("%s: the span says%s, EXPLAIN ANALYZE prints %q", cell, shape, explainLine(explain, n.Key()))
					}
					pc := dv.PlanCost(n)
					priced := pc-dv.PlanCost(n.Left)-dv.PlanCost(n.Right) > 1e-9*math.Max(pc, 1)
					local, has := sp.Num["local"]
					switch {
					case sp.Kind == obs.KNestedLoop || s == 1:
						if has || priced {
							t.Errorf("%s: local attribute %v (%v), exchange priced %v; want neither", cell, local, has, priced)
						}
					case n.Right.IsLeaf() && n.Right.Leaf.Size() == 1 && reused[n.Right.Key()]: // the pinned divergence
						pinned++
						if local != 0 || priced {
							t.Errorf("%s: reused build leaf local=%v, exchange priced %v; want the pinned local=0, unpriced", cell, local, priced)
						}
					case (local == 1) == priced:
						t.Errorf("%s: the engine's build local=%v, the Deriver prices an exchange: %v", cell, local, priced)
					}
				}
				walk(tree)
				reused[tree.Key()] = true
			}
		}
	}
	if pinned == 0 {
		t.Error("no matrix tree builds on a reused single-alias leaf: the pinned divergence is untested")
	}
}

// explainLine returns the EXPLAIN ANALYZE line of the join over key.
func explainLine(explain, key string) string {
	for _, l := range strings.Split(explain, "\n") {
		if strings.Contains(l, "⋈ ["+key+"] ") {
			return l
		}
	}
	return ""
}
