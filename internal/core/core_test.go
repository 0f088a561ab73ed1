package core

import (
	"strings"
	"testing"

	"monsoon/internal/engine"
	"monsoon/internal/expr"
	"monsoon/internal/mcts"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/stats"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// fixture builds a small R/S/T world shaped like §2.3: R is large, S and T
// small, and the two join predicates have very different selectivities —
// both sides of the R–S predicate are constant (d = 1 on both: the join is a
// full cross product, 200k intermediates) while the R–T join is empty — so
// the join order matters by two orders of magnitude.
func fixture() (*table.Catalog, *query.Query) {
	cat := table.NewCatalog()
	rs := table.NewSchema(
		table.Column{Table: "R", Name: "a", Kind: value.KindInt},
		table.Column{Table: "R", Name: "b", Kind: value.KindInt},
	)
	rb := table.NewBuilder("R", rs)
	for i := 0; i < 2000; i++ {
		rb.Add(value.Int(7), value.Int(int64(i%40)))
	}
	cat.Put(rb.Build())
	ss := table.NewSchema(table.Column{Table: "S", Name: "k", Kind: value.KindInt})
	sb := table.NewBuilder("S", ss)
	for i := 0; i < 100; i++ {
		sb.Add(value.Int(7)) // d(F2,S) = 1 and d(F1,R) = 1: R⋈S explodes
	}
	cat.Put(sb.Build())
	ts := table.NewSchema(table.Column{Table: "T", Name: "k", Kind: value.KindInt})
	tb := table.NewBuilder("T", ts)
	for i := 0; i < 100; i++ {
		tb.Add(value.Int(int64(1000 + i))) // never matches R.b: R⋈T is empty
	}
	cat.Put(tb.Build())
	q := query.NewBuilder("rst").
		Rel("R", "R").Rel("S", "S").Rel("T", "T").
		Join(expr.Identity("R.a"), expr.Identity("S.k")).
		Join(expr.Identity("R.b"), expr.Identity("T.k")).
		MustBuild()
	return cat, q
}

func initState(q *query.Query, cat *table.Catalog) (*State, *engine.Engine) {
	eng := engine.New(cat)
	st := stats.New()
	eng.SeedBaseStats(q, st)
	return NewInitialState(q, st), eng
}

func TestInitialStateAndTerminal(t *testing.T) {
	cat, q := fixture()
	s, _ := initState(q, cat)
	if s.Terminal() {
		t.Error("initial state must not be terminal")
	}
	if len(s.Active) != 3 || len(s.Planned) != 0 {
		t.Errorf("initial state wrong: %s", s)
	}
	// Terminal only after an execution covering the full alias set: a
	// full-cover *active* entry is not enough (single-relation start states
	// are active-full but unexecuted).
	s.Active, s.leaves = []query.AliasSet{q.Aliases()}, []*plan.Node{plan.NewLeaf(q.Aliases())}
	if s.Terminal() {
		t.Error("active-full without execution must not be terminal")
	}
	s.Planned = []PlannedTree{{Tree: s.leaves[0]}}
	settleExecution(s, nil)
	if !s.Terminal() {
		t.Error("executed full-cover expression must be terminal")
	}
}

func actionKeys(acts []Action) map[string]bool {
	m := map[string]bool{}
	for _, a := range acts {
		m[a.Key()] = true
	}
	return m
}

func TestLegalActionsAtStart(t *testing.T) {
	cat, q := fixture()
	s, _ := initState(q, cat)
	keys := actionKeys(legalActions(s, q, new(joinBuf)))
	for _, want := range []string{"jm:R|S", "jm:R|T", "Σcopy:R", "Σcopy:S", "Σcopy:T"} {
		if !keys[want] {
			t.Errorf("missing legal action %q in %v", want, keys)
		}
	}
	if keys["jm:S|T"] {
		t.Error("S⋈T is an unconnected cross product and must be pruned")
	}
	if keys["exec"] {
		t.Error("EXECUTE with empty Rp must be illegal")
	}
}

func TestLegalActionsAfterPlanning(t *testing.T) {
	cat, q := fixture()
	s, _ := initState(q, cat)
	s2, err := applyPlanEdit(s, q, Action{Kind: ActJoinMats, A: "R", B: "S"})
	if err != nil {
		t.Fatal(err)
	}
	keys := actionKeys(legalActions(s2, q, new(joinBuf)))
	if !keys["exec"] {
		t.Error("EXECUTE must be legal with planned trees")
	}
	if !keys["jmp:T|R+S"] {
		t.Errorf("joining T into the planned tree must be legal: %v", keys)
	}
	if keys["jm:R|T"] || keys["jm:R|S"] {
		t.Error("mats consumed by a planned tree must not re-join")
	}
	if !keys["Σwrap:R+S"] {
		t.Errorf("Σ-wrapping the planned tree must be legal: %v", keys)
	}
	// Σ-copies of consumed mats remain legal (side computations).
	if !keys["Σcopy:T"] {
		t.Errorf("Σ-copy of a free mat must stay legal: %v", keys)
	}
}

func TestSigmaUsefulnessDeclines(t *testing.T) {
	cat, q := fixture()
	s, _ := initState(q, cat)
	// Measure both terms over S; Σ(S) becomes useless.
	s.St.SetMeasured(q.Joins[0].R.ID, "S", 1)
	keys := actionKeys(legalActions(s, q, new(joinBuf)))
	if keys["Σcopy:S"] {
		t.Error("Σ-copy of fully measured S must be pruned")
	}
	// Consume pred 0 by covering it with a planned tree: Σ targeting its
	// terms becomes useless too.
	s2, _ := applyPlanEdit(s, q, Action{Kind: ActJoinMats, A: "R", B: "T"})
	s3, _ := applyPlanEdit(s2, q, Action{Kind: ActJoinMatPlanned, A: "S", B: "R+T"})
	keys = actionKeys(legalActions(s3, q, new(joinBuf)))
	for k := range keys {
		if strings.HasPrefix(k, "Σ") {
			t.Errorf("all preds consumed; Σ action %q must be pruned", k)
		}
	}
}

func TestApplyPlanEditKinds(t *testing.T) {
	cat, q := fixture()
	s, _ := initState(q, cat)
	s1, err := applyPlanEdit(s, q, Action{Kind: ActSigmaCopy, A: "S"})
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Planned) != 1 || !s1.Planned[0].SigmaCopy || !s1.Planned[0].Tree.Sigma {
		t.Errorf("Σ-copy wrong: %s", s1)
	}
	if len(s.Planned) != 0 {
		t.Error("applyPlanEdit must not mutate the input state")
	}
	s2, err := applyPlanEdit(s1, q, Action{Kind: ActJoinMats, A: "R", B: "T"})
	if err != nil {
		t.Fatal(err)
	}
	s3, err := applyPlanEdit(s2, q, Action{Kind: ActSigmaWrap, A: "R+T"})
	if err != nil {
		t.Fatal(err)
	}
	i := s3.findPlanned("R+T")
	if i < 0 || !s3.Planned[i].Tree.Sigma || s3.Planned[i].SigmaCopy {
		t.Errorf("Σ-wrap wrong: %s", s3)
	}
	// Join two planned trees.
	sA, _ := applyPlanEdit(s, q, Action{Kind: ActJoinMats, A: "R", B: "S"})
	if _, err := applyPlanEdit(sA, q, Action{Kind: ActJoinPlanned, A: "R+S", B: "R+S"}); err == nil {
		t.Error("self-join of a planned tree must error")
	}
	// Errors for missing operands.
	for _, bad := range []Action{
		{Kind: ActSigmaCopy, A: "ZZ"},
		{Kind: ActSigmaWrap, A: "ZZ"},
		{Kind: ActJoinMats, A: "R", B: "ZZ"},
		{Kind: ActJoinMatPlanned, A: "ZZ", B: "R+S"},
		{Kind: ActExecute},
	} {
		if _, err := applyPlanEdit(s, q, bad); err == nil {
			t.Errorf("action %v must error", bad)
		}
	}
}

func TestSettleExecution(t *testing.T) {
	cat, q := fixture()
	s, _ := initState(q, cat)
	s1, _ := applyPlanEdit(s, q, Action{Kind: ActSigmaCopy, A: "S"})
	s2, _ := applyPlanEdit(s1, q, Action{Kind: ActJoinMats, A: "R", B: "T"})
	ns := s2.clone(false)
	ns.ownFrontier()
	settleExecution(ns, nil)
	if len(ns.Planned) != 0 {
		t.Error("settle must clear Rp")
	}
	var keys []string
	for _, a := range ns.Active {
		keys = append(keys, a.Key())
	}
	want := "R+T,S"
	if strings.Join(keys, ",") != want {
		t.Errorf("actives = %v, want %s", keys, want)
	}
}

func TestModelStepDeterministicVsStochastic(t *testing.T) {
	cat, q := fixture()
	s, _ := initState(q, cat)
	m := &Model{Q: q, Prior: prior.Default(), Rng: randx.New(1)}
	ns, r, stoch := m.Step(s, &Action{Kind: ActJoinMats, A: "R", B: "S"})
	if stoch || r != 0 {
		t.Errorf("plan edit must be deterministic zero-reward, got r=%v stoch=%v", r, stoch)
	}
	if ns.(*State).St != s.St {
		t.Error("plan edits must share the statistics store")
	}
	ns2, r2, stoch2 := m.Step(ns, &Action{Kind: ActExecute})
	if !stoch2 {
		t.Error("EXECUTE must be stochastic")
	}
	if r2 >= 0 {
		t.Errorf("EXECUTE reward must be a negative cost, got %v", r2)
	}
	st2 := ns2.(*State)
	if st2.St == s.St {
		t.Error("EXECUTE must clone the statistics store")
	}
	if len(st2.Planned) != 0 {
		t.Error("EXECUTE must clear Rp")
	}
	if _, ok := st2.St.Count("R+S"); !ok {
		t.Error("EXECUTE must harden the materialized expression's count")
	}
	if _, ok := s.St.Count("R+S"); ok {
		t.Error("EXECUTE must not leak into the parent state's store")
	}
}

func TestModelSimSigmaHardens(t *testing.T) {
	cat, q := fixture()
	s, _ := initState(q, cat)
	m := &Model{Q: q, Prior: prior.Default(), Rng: randx.New(2)}
	s1, _, _ := m.Step(s, &Action{Kind: ActSigmaCopy, A: "S"})
	s2, r, _ := m.Step(s1, &Action{Kind: ActExecute})
	st2 := s2.(*State)
	if !st2.St.HasMeasured(q.Joins[0].R.ID, "S") {
		t.Error("simulated Σ(S) must harden d(F2, S)")
	}
	// Σ(S) costs two passes over S (scan + collect): reward -2·c(S).
	if r != -200 {
		t.Errorf("Σ(S) reward = %v, want -200", r)
	}
	// The Σ-copy must not change the active frontier.
	if len(st2.Active) != 3 {
		t.Errorf("Σ-copy execution changed actives: %s", st2)
	}
}

func TestOutcomeKeySplitsWorlds(t *testing.T) {
	cat, q := fixture()
	s, _ := initState(q, cat)
	a := s.clone(true)
	b := s.clone(true)
	a.St.SetMeasured(0, "S", 1)
	b.St.SetMeasured(0, "S", 10000)
	if a.OutcomeKey() == b.OutcomeKey() {
		t.Error("very different hardened stats must split outcome keys")
	}
	c := s.clone(true)
	c.St.SetMeasured(0, "S", 1)
	if a.OutcomeKey() != c.OutcomeKey() {
		t.Error("identical worlds must share outcome keys")
	}
}

func TestRolloutTerminates(t *testing.T) {
	cat, q := fixture()
	s, _ := initState(q, cat)
	m := &Model{Q: q, Prior: prior.Uniform{}, Rng: randx.New(3)}
	rng := randx.New(4)
	for trial := 0; trial < 50; trial++ {
		var cur mcts.State = s
		steps := 0
		for !cur.Terminal() {
			a := m.RolloutAction(cur, rng)
			if a == nil {
				t.Fatalf("stuck in non-terminal state: %s", cur.(*State))
			}
			cur, _, _ = m.Step(cur, a)
			steps++
			if steps > 100 {
				t.Fatalf("rollout did not terminate within 100 steps")
			}
		}
	}
}

// referenceCount executes a fixed plan directly to know the true result size.
func referenceCount(t *testing.T) int {
	t.Helper()
	cat, q := fixture()
	eng := engine.New(cat)
	tree := plan.NewJoin(plan.NewJoin(
		plan.NewLeaf(query.NewAliasSet("R")), plan.NewLeaf(query.NewAliasSet("T"))),
		plan.NewLeaf(query.NewAliasSet("S")))
	rel, _, err := eng.NewExec(engine.ExecConfig{}).ExecTree(q, tree, &engine.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	return rel.Count()
}

func TestDriverEndToEnd(t *testing.T) {
	want := referenceCount(t)
	for _, strat := range []mcts.Strategy{mcts.UCT, mcts.EpsGreedy} {
		cat, q := fixture()
		eng := engine.New(cat)
		res, err := Run(q, eng, &engine.Budget{}, Config{
			Seed: 7, Strategy: strat, Iterations: 300,
		})
		if err != nil {
			t.Fatalf("strategy %d: %v", strat, err)
		}
		if res.Rows != want {
			t.Errorf("strategy %d: rows = %d, want %d", strat, res.Rows, want)
		}
		if res.Executes < 1 || res.Actions < res.Executes {
			t.Errorf("strategy %d: implausible accounting %+v", strat, res)
		}
		if res.Produced <= 0 {
			t.Error("Produced must be positive")
		}
	}
}

func TestDriverTrace(t *testing.T) {
	cat, q := fixture()
	eng := engine.New(cat)
	var lines []string
	_, err := Run(q, eng, &engine.Budget{}, Config{
		Seed: 9, Iterations: 200,
		Sink: obs.MessageSink(func(s string) { lines = append(lines, s) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Error("trace must receive actions")
	}
	sawExec := false
	for _, l := range lines {
		if l == "EXECUTE" {
			sawExec = true
		}
	}
	if !sawExec {
		t.Errorf("trace must include EXECUTE: %v", lines)
	}
}

func TestDriverBudgetTimeout(t *testing.T) {
	cat, q := fixture()
	eng := engine.New(cat)
	_, err := Run(q, eng, &engine.Budget{MaxTuples: 50}, Config{Seed: 3, Iterations: 100})
	if err == nil {
		t.Error("tiny tuple budget must abort the run")
	}
}

func TestDriverDeterministicSeeds(t *testing.T) {
	run := func() float64 {
		cat, q := fixture()
		eng := engine.New(cat)
		res, err := Run(q, eng, &engine.Budget{}, Config{Seed: 11, Iterations: 200})
		if err != nil {
			t.Fatal(err)
		}
		return res.Produced
	}
	if run() != run() {
		t.Error("same seed must reproduce the same run")
	}
}

// TestMonsoonAvoidsTheTrap: in this fixture the plan ((R⋈S)⋈T) explodes
// (d(F2,S)=1 → 2000·100 = 200k intermediates ≈ 100× the alternative), while
// ((R⋈T)⋈S) stays small. Across seeds Monsoon should pay much closer to the
// good plan than the bad one. This is the paper's core claim in miniature.
// The seed set is deterministic, so this is a pinned average, not a flaky
// statistic; re-pinned over 10 seeds when planning switched to the
// root-parallel shard ensemble (whose measured trap rate across budgets is
// no worse than the old single-stream search's).
func TestMonsoonAvoidsTheTrap(t *testing.T) {
	// Costs of the two pure strategies, measured on the real engine.
	planCost := func(first string) float64 {
		cat, q := fixture()
		eng := engine.New(cat)
		tree := plan.NewJoin(plan.NewJoin(
			plan.NewLeaf(query.NewAliasSet("R")), plan.NewLeaf(query.NewAliasSet(first))),
			plan.NewLeaf(query.NewAliasSet(map[string]string{"S": "T", "T": "S"}[first])))
		_, er, err := eng.NewExec(engine.ExecConfig{}).ExecTree(q, tree, &engine.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		return er.Produced
	}
	bad := planCost("S")
	good := planCost("T")
	if bad < 10*good {
		t.Fatalf("fixture broken: bad=%v good=%v", bad, good)
	}
	total := 0.0
	runs := 10
	for seed := int64(0); seed < int64(runs); seed++ {
		cat, q := fixture()
		eng := engine.New(cat)
		res, err := Run(q, eng, &engine.Budget{}, Config{Seed: seed, Iterations: 600})
		if err != nil {
			t.Fatal(err)
		}
		total += res.Produced
	}
	avg := total / float64(runs)
	if avg > bad/2 {
		t.Errorf("Monsoon average cost %v too close to the trap plan %v (good plan %v)", avg, bad, good)
	}
}
