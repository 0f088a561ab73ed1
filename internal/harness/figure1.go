package harness

import (
	"fmt"
	"io"

	"monsoon/internal/core"
	"monsoon/internal/engine"
	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/stats"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// fig1World is a faithful scaled instance of the §2.3 example. The paper's
// priors there are: d(F1,R) and d(F3,R) known with certainty, d(F2,S) and
// d(F4,T) unknown with mass on both "tiny" and "as large as the table".
// Scaled ×10 down from the paper (c(R)=10^5, c(S)=c(T)=10^3, d(F1)=d(F3)=100)
// so the walk runs in seconds:
//
//	truth: d(F2,S) = 1    → R⋈S produces 10^6 pairs (the 10× trap)
//	       d(F4,T) = 1000 → R⋈T produces 10^5 pairs (optimal first join)
func fig1World() (*table.Catalog, *query.Query, *stats.Store) {
	cat := table.NewCatalog()
	rb := table.NewBuilder("R", table.NewSchema(
		table.Column{Table: "R", Name: "a", Kind: value.KindInt},
		table.Column{Table: "R", Name: "b", Kind: value.KindInt},
	))
	for i := 0; i < 100000; i++ {
		rb.Add(value.Int(int64(i%100)), value.Int(int64(i%100)))
	}
	cat.Put(rb.Build())
	sb := table.NewBuilder("S", table.NewSchema(
		table.Column{Table: "S", Name: "k", Kind: value.KindInt}))
	for i := 0; i < 1000; i++ {
		sb.Add(value.Int(7))
	}
	cat.Put(sb.Build())
	tb := table.NewBuilder("T", table.NewSchema(
		table.Column{Table: "T", Name: "k", Kind: value.KindInt}))
	for i := 0; i < 1000; i++ {
		tb.Add(value.Int(int64(i)))
	}
	cat.Put(tb.Build())
	q := query.NewBuilder("sec23").
		Rel("R", "R").Rel("S", "S").Rel("T", "T").
		Join(expr.Identity("R.a"), expr.Identity("S.k")).
		Join(expr.Identity("R.b"), expr.Identity("T.k")).
		Sum("R.a").
		MustBuild()
	// §2.3's "known" statistics: d(F1,R) = d(F3,R) = 100 with certainty.
	st := stats.New()
	st.SetMeasured(q.Joins[0].L.ID, "R", 100)
	st.SetMeasured(q.Joins[1].L.ID, "R", 100)
	return cat, q, st
}

// Figure1 reproduces the paper's Figure 1 as an annotated walk: it builds the
// §2.3 world above, measures the two pure plans' real costs on the engine,
// then runs the Monsoon driver — initialized, as in the paper's example, with
// the R-side statistics known — and prints every MDP action it takes in the
// real world: the Σ statistics-collection probes, what they harden, and the
// join order the optimizer then commits to.
func Figure1(w io.Writer, seed int64) error {
	fmt.Fprintln(w, "Figure 1: a real walk of the §2.3 MDP (scaled ×10 down)")
	fmt.Fprintln(w, "world: c(R)=100000, c(S)=c(T)=1000; known: d(F1,R)=d(F3,R)=100")
	fmt.Fprintln(w, "hidden: d(F2,S)=1 and d(F4,T)=1000 — Table 1's row 2, where the")
	fmt.Fprintln(w, "optimal plan is ((R⋈T)⋈S) and the blind alternative costs ~10x more")

	refCost := func(first string) float64 {
		cat, q, _ := fig1World()
		ex := engine.New(cat).NewExec(engine.ExecConfig{})
		second := map[string]string{"S": "T", "T": "S"}[first]
		tree := plan.NewJoin(plan.NewJoin(
			plan.NewLeaf(query.NewAliasSet("R")), plan.NewLeaf(query.NewAliasSet(first))),
			plan.NewLeaf(query.NewAliasSet(second)))
		_, er, err := ex.ExecTree(q, tree, &engine.Budget{})
		if err != nil {
			return -1
		}
		return er.Produced
	}
	badCost := refCost("S")
	goodCost := refCost("T")
	fmt.Fprintf(w, "reference (measured): ((R⋈S)⋈T) pays %.0f objects; ((R⋈T)⋈S) pays %.0f; a Σ probe adds 2·1000\n",
		badCost, goodCost)

	fmt.Fprintln(w, "start state: Rp={}, Re={R,S,T}, S={c(R),c(S),c(T),d(F1,R),d(F3,R)}")
	fmt.Fprintln(w, "actions taken in the real world:")
	cat, q, st := fig1World()
	res, err := core.Run(q, engine.New(cat), &engine.Budget{}, core.Config{
		Seed:       randx.Derive(seed, "figure1"),
		Iterations: 2000,
		Stats:      st,
		Sink:       obs.MessageSink(func(s string) { fmt.Fprintln(w, "  "+s) }),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "terminal: %d EXECUTE rounds, %d Σ operators, %.0f objects produced (vs %.0f bold-bad / %.0f oracle)\n",
		res.Executes, res.SigmaOps, res.Produced, badCost, goodCost)
	return nil
}
