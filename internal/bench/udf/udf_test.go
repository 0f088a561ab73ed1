package udf

import (
	"errors"
	"testing"

	"monsoon/internal/cost"
	"monsoon/internal/engine"
	"monsoon/internal/opt"
	"monsoon/internal/stats"
)

func TestSuiteShape(t *testing.T) {
	s := Generate(Config{Titles: 150, ScaleFactor: 0.001, Seed: 1})
	if len(s.IMDB) != 15 || len(s.TPCH) != 10 {
		t.Fatalf("suite = %d + %d queries, want 15 + 10", len(s.IMDB), len(s.TPCH))
	}
	all := s.All()
	if len(all) != 25 {
		t.Fatalf("All() = %d", len(all))
	}
	multiTable := 0
	for _, qc := range all {
		if err := qc.Query.Validate(); err != nil {
			t.Errorf("%s: %v", qc.Query.Name, err)
		}
		for _, term := range qc.Query.Terms() {
			if term.Aliases.Size() > 1 {
				multiTable++
				break
			}
		}
		// Every join term must be a genuine (non-identity) UDF.
		for _, p := range qc.Query.Joins {
			if p.L.Fn.Name == "id" || p.R.Fn.Name == "id" {
				t.Errorf("%s: identity join term %s — the UDF benchmark must obscure all predicates",
					qc.Query.Name, p)
			}
		}
	}
	if multiTable < 3 {
		t.Errorf("only %d queries with multi-table UDFs, want >= 3", multiTable)
	}
}

func TestQueriesProduceResults(t *testing.T) {
	// The extract/format joins must actually match keys — a broken pattern
	// would make every query trivially empty and the benchmark meaningless.
	s := Generate(Config{Titles: 200, ScaleFactor: 0.001, Seed: 2})
	nonEmpty := 0
	aborted := 0
	for _, qc := range s.All() {
		eng := engine.New(qc.Cat)
		st := stats.New()
		eng.SeedBaseStats(qc.Query, st)
		dv := &cost.Deriver{Q: qc.Query, St: st, Miss: cost.DefaultMiss(0.1)}
		tree, err := opt.BestPlan(qc.Query, dv)
		if err != nil {
			t.Fatalf("%s: plan: %v", qc.Query.Name, err)
		}
		rel, _, err := eng.NewExec(engine.ExecConfig{}).ExecTree(qc.Query, tree, &engine.Budget{MaxTuples: 3e6})
		if err != nil {
			if errors.Is(err, engine.ErrBudget) {
				aborted++
				continue
			}
			t.Fatalf("%s: exec: %v", qc.Query.Name, err)
		}
		if rel.Count() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 10 {
		t.Errorf("only %d of 25 UDF queries return rows; joins are likely broken", nonEmpty)
	}
	if aborted > 12 {
		t.Errorf("%d of 25 aborted at this scale; benchmark unusable", aborted)
	}
}

func TestExtractFormatRoundTrip(t *testing.T) {
	s := Generate(Config{Titles: 50, ScaleFactor: 0.001, Seed: 3})
	title := s.IMDBCat.MustGet("title")
	noteIdx := title.Schema.MustLookup("title.note")
	idIdx := title.Schema.MustLookup("title.id")
	ex := extractTitleKey("title.note")
	fm := formatMovieID("title.id")
	bx, ok1 := ex.Bind(title.Schema)
	bf, ok2 := fm.Bind(title.Schema)
	if !ok1 || !ok2 {
		t.Fatal("bindings failed")
	}
	for _, row := range title.Rows[:20] {
		if !bx.Eval(row).Equal(bf.Eval(row)) {
			t.Fatalf("extract/format mismatch: note=%v id=%v -> %v vs %v",
				row[noteIdx], row[idIdx], bx.Eval(row), bf.Eval(row))
		}
	}
}
