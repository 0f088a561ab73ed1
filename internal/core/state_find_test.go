package core

import (
	"testing"

	"monsoon/internal/randx"
)

// keysOf lists the state's planned and active keys in slice order.
func keysOf(s *State) (planned, active []string) {
	for _, t := range s.Planned {
		planned = append(planned, t.Tree.Key())
	}
	for _, a := range s.Active {
		active = append(active, a.Key())
	}
	return planned, active
}

// checkFinds verifies the find* scans against the slices they search: every
// entry is found at its own index, absent keys miss, and the slices still
// hold exactly the keys wantPlanned/wantActive (nil skips that comparison).
func checkFinds(t *testing.T, label string, s *State, wantPlanned, wantActive []string) {
	t.Helper()
	planned, active := keysOf(s)
	for i, k := range planned {
		if got := s.findPlanned(k); got != i {
			t.Fatalf("%s: findPlanned(%q) = %d, slice index %d", label, k, got, i)
		}
	}
	for i, k := range active {
		if got := s.findActive(k); got != i {
			t.Fatalf("%s: findActive(%q) = %d, slice index %d", label, k, got, i)
		}
		if i > 0 && active[i-1] >= k {
			t.Fatalf("%s: frontier out of key order: %v", label, active)
		}
	}
	if s.findPlanned("⊥no-such-key") != -1 || s.findActive("⊥no-such-key") != -1 {
		t.Fatalf("%s: absent key must return -1", label)
	}
	same := func(a, b []string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if wantPlanned != nil && !same(planned, wantPlanned) {
		t.Fatalf("%s: planned keys %v, want %v", label, planned, wantPlanned)
	}
	if wantActive != nil && !same(active, wantActive) {
		t.Fatalf("%s: active keys %v, want %v", label, active, wantActive)
	}
}

// TestFindAfterRandomEdits walks random legal-action trajectories — every
// plan-edit kind plus EXECUTE settlement — and checks after each transition
// that the find* scans locate every entry of the edited state, and that the
// state the edit started from, which shares its frontier slice and had its
// planned slice copied, still holds exactly what it held before.
func TestFindAfterRandomEdits(t *testing.T) {
	cat, q := fixture()
	for seed := int64(0); seed < 20; seed++ {
		rng := randx.New(seed)
		s, _ := initState(q, cat)
		checkFinds(t, "initial", s, nil, nil)
		for step := 0; step < 40 && !s.Terminal(); step++ {
			acts := legalActions(s, q, new(joinBuf))
			if len(acts) == 0 {
				break
			}
			a := acts[rng.Intn(len(acts))]
			planned, active := keysOf(s)
			var next *State
			if a.Kind == ActExecute {
				// Mimic the driver's settlement without running the engine:
				// the frontier update is all that touches the slices.
				next = s.clone(true)
				next.ownFrontier()
				settleExecution(next, nil)
			} else {
				var err error
				if next, err = applyPlanEdit(s, q, a); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			if planned == nil {
				planned = []string{}
			}
			checkFinds(t, "parent after "+a.Key(), s, planned, active)
			checkFinds(t, a.Key(), next, nil, nil)
			s = next
		}
	}
}
