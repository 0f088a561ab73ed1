package cost

import (
	"fmt"
	"strings"
	"testing"

	"monsoon/internal/engine"
	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

func TestExplainRendersTree(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss()}
	tree := plan.NewJoin(plan.NewJoin(leaf("R"), leaf("S")), leaf("T"))
	out := Explain(dv, tree, nil)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("explain has %d lines, want 5:\n%s", len(lines), out)
	}
	for _, want := range []string{"⋈ [R+S+T]", "⋈ [R+S]", "scan R", "scan S", "scan T",
		"est=1e+06", "preds{"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// Indentation: leaves are deeper than their join.
	if !strings.HasPrefix(lines[1], "  ⋈") || !strings.HasPrefix(lines[2], "    scan") {
		t.Errorf("indentation wrong:\n%s", out)
	}
}

func TestExplainWithActuals(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss()}
	tree := plan.NewJoin(leaf("R"), leaf("S"))
	out := Explain(dv, tree, map[string]float64{"R+S": 2e6})
	if !strings.Contains(out, "actual=2e+06") {
		t.Errorf("actuals missing:\n%s", out)
	}
	if !strings.Contains(out, "q=2.00") {
		t.Errorf("q-error missing (est 1e6 vs actual 2e6 → 2.00):\n%s", out)
	}
}

func TestExplainSigmaAndReuseAndCross(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	st.SetCount("R+S", 123)
	dv := &Deriver{Q: q, St: st, Miss: DefaultMiss(0.1)}
	sig := leaf("S").WithSigma()
	if out := Explain(dv, sig, nil); !strings.Contains(out, "Σ scan S") {
		t.Errorf("Σ marker missing:\n%s", out)
	}
	reuse := plan.NewJoin(leaf("R", "S"), leaf("T"))
	out := Explain(dv, reuse, nil)
	if !strings.Contains(out, "reuse [R+S]") {
		t.Errorf("materialized reuse missing:\n%s", out)
	}
	cross := plan.NewJoin(leaf("S"), leaf("T"))
	if out := Explain(dv, cross, nil); !strings.Contains(out, "cross-product") {
		t.Errorf("cross product marker missing:\n%s", out)
	}
}

// TestExplainAnalyzeJoinShape holds joinShape to the engine it mirrors: for
// every join of two trees — two key predicates, a key predicate over a
// two-alias term, a nested loop, a predicate with a term that reads both
// children — the key_terms and residuals EXPLAIN ANALYZE prints are the
// attributes the engine put on that join's hash-build or nested-loop span.
func TestExplainAnalyzeJoinShape(t *testing.T) {
	cat := table.NewCatalog()
	for _, name := range []string{"R", "S", "T"} {
		b := table.NewBuilder(name, table.NewSchema(
			table.Column{Table: name, Name: "a", Kind: value.KindInt},
			table.Column{Table: name, Name: "b", Kind: value.KindInt},
		))
		for i := 0; i < 30; i++ {
			b.Add(value.Int(int64(i%5)), value.Int(int64(i%3)))
		}
		cat.Put(b.Build())
	}
	id := expr.Identity
	q := query.NewBuilder("shape").Rel("R", "R").Rel("S", "S").Rel("T", "T").
		Join(id("R.a"), id("S.a")).
		Join(id("S.b"), id("R.b")).
		Join(expr.SumMod("R.a", "S.a", 5), id("T.a")).
		Select(expr.SumMod("R.b", "T.b", 2), value.Int(0)).
		MustBuild()
	want := map[string]string{ // per tree and join key
		"((R⋈S)⋈T) R+S":   " key_terms=2 residuals=1 ",
		"((R⋈S)⋈T) R+S+T": " key_terms=1 residuals=1 ",
		"((R⋈T)⋈S) R+T":   "} residuals=1 ",
		"((R⋈T)⋈S) R+S+T": " key_terms=2 residuals=2 ",
	}
	for _, tree := range []*plan.Node{
		plan.NewJoin(plan.NewJoin(leaf("R"), leaf("S")), leaf("T")),
		plan.NewJoin(plan.NewJoin(leaf("R"), leaf("T")), leaf("S")),
	} {
		col := &obs.Collector{}
		ex := engine.New(cat).NewExec(engine.ExecConfig{Obs: obs.NewTracer(col)})
		if _, _, err := ex.ExecTree(q, tree, &engine.Budget{}); err != nil {
			t.Fatal(err)
		}
		out := ExplainAnalyze(q, tree, nil, nil, nil, nil)
		joins := 0
		for _, sp := range col.Spans {
			if sp.Kind != obs.KHashBuild && sp.Kind != obs.KNestedLoop {
				continue
			}
			joins++
			shape := fmt.Sprintf(" residuals=%v ", sp.Num["residuals"])
			if k, ok := sp.Num["key_terms"]; ok {
				shape = fmt.Sprintf(" key_terms=%v", k) + shape
			}
			line := ""
			for _, l := range strings.Split(out, "\n") {
				if strings.Contains(l, "⋈ ["+sp.Name+"] ") {
					line = l
				}
			}
			if !strings.Contains(line, shape) {
				t.Errorf("%s: the engine's %s span says%s, EXPLAIN ANALYZE prints %q", tree, sp.Kind, shape, line)
			}
			if w, ok := want[tree.String()+" "+sp.Name]; !ok || !strings.Contains(line, w) {
				t.Errorf("%s: join %s prints %q, want it to contain %q", tree, sp.Name, line, w)
			}
		}
		if joins != 2 {
			t.Errorf("%s: %d join operator spans, want 2", tree, joins)
		}
	}
}
