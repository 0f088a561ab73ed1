package core

import (
	"fmt"
	"slices"

	"monsoon/internal/plan"
	"monsoon/internal/query"
)

// ActionKind enumerates the MDP actions of §4.2.
type ActionKind uint8

// The action kinds. The first five edit Rp deterministically; Execute
// triggers the stochastic materialize-and-observe transition.
const (
	// ActSigmaCopy copies a materialized expression from Re into Rp topped
	// with Σ (§4.2, statistics option 1).
	ActSigmaCopy ActionKind = iota
	// ActSigmaWrap replaces a planned expression with its Σ-topped version
	// (§4.2, statistics option 2).
	ActSigmaWrap
	// ActJoinMats adds the join of two materialized expressions to Rp
	// (§4.2, join option 1).
	ActJoinMats
	// ActJoinPlanned replaces two Σ-free planned expressions with their join
	// (§4.2, join option 2).
	ActJoinPlanned
	// ActJoinMatPlanned replaces a Σ-free planned expression with its join
	// against a materialized expression (§4.2, join option 3).
	ActJoinMatPlanned
	// ActExecute executes and materializes every expression in Rp.
	ActExecute
	// ActMaterialize adds a bare (Σ-free) materialization of an Re
	// expression to Rp. It exists for single-relation queries, whose result
	// is a filtered scan rather than a join.
	ActMaterialize
)

// Action is one MDP action. A and B name the operands by expression key: for
// ActJoinMats two active Re keys, for ActJoinPlanned two planned-tree keys,
// for ActJoinMatPlanned the Re key then the planned key, for the Σ actions
// the single target key.
type Action struct {
	Kind ActionKind
	A, B string
}

// Key implements mcts.Action.
func (a Action) Key() string {
	switch a.Kind {
	case ActSigmaCopy:
		return "Σcopy:" + a.A
	case ActSigmaWrap:
		return "Σwrap:" + a.A
	case ActJoinMats:
		return "jm:" + a.A + "|" + a.B
	case ActJoinPlanned:
		return "jp:" + a.A + "|" + a.B
	case ActJoinMatPlanned:
		return "jmp:" + a.A + "|" + a.B
	case ActExecute:
		return "exec"
	case ActMaterialize:
		return "mat:" + a.A
	default:
		return fmt.Sprintf("act(%d)", a.Kind)
	}
}

// String renders the action for logs and traces.
func (a Action) String() string {
	switch a.Kind {
	case ActSigmaCopy:
		return "add Σ(" + a.A + ") to Rp"
	case ActSigmaWrap:
		return "wrap " + a.A + " with Σ"
	case ActJoinMats:
		return "join materialized " + a.A + " ⋈ " + a.B
	case ActJoinPlanned:
		return "join planned " + a.A + " ⋈ " + a.B
	case ActJoinMatPlanned:
		return "join materialized " + a.A + " with planned " + a.B
	case ActExecute:
		return "EXECUTE"
	case ActMaterialize:
		return "materialize " + a.A
	default:
		return a.Key()
	}
}

// predOpen reports whether join predicate p can still be consumed by a future
// join: no materialized expression and no planned tree already covers it.
func predOpen(s *State, p *query.JoinPred) bool {
	all := p.Aliases()
	for _, a := range s.Active {
		if all.SubsetOf(a) {
			return false
		}
	}
	for _, t := range s.Planned {
		if !t.SigmaCopy && all.SubsetOf(t.Tree.Aliases()) {
			return false
		}
	}
	return true
}

// usefulSigmaTerm reports whether collecting statistics over an expression
// covering cover would measure at least one join term that is (a) evaluable
// there, (b) not already applied inside the expression, (c) still open, and
// (d) not already measured over this expression or its minimal alias set.
func usefulSigmaTerm(s *State, q *query.Query, cover query.AliasSet) bool {
	for _, p := range q.Joins {
		for _, t := range []*query.Term{p.L, p.R} {
			if !t.Aliases.SubsetOf(cover) {
				continue
			}
			if p.ApplicableAt(cover) {
				continue // consumed inside the expression; stats are moot
			}
			if !predOpen(s, p) {
				continue
			}
			if s.St.HasMeasuredOf(t.ID, cover) || s.St.HasMeasuredOf(t.ID, t.Aliases) {
				continue
			}
			return true
		}
	}
	return false
}

// usefulSigmaCount reports whether materializing the expression would harden
// an unknown selection-bearing cardinality — the other reason to Σ-copy a
// base relation (§2.3: "scan the set S and collect statistics"). It is moot
// when a pending planned tree already contains the expression: executing that
// tree hardens the count for free.
func usefulSigmaCount(s *State, q *query.Query, cover query.AliasSet) bool {
	if _, known := s.St.CountOf(cover); known {
		return false
	}
	if len(q.SelsAt(cover)) == 0 {
		return false
	}
	for _, t := range s.Planned {
		if !t.SigmaCopy && cover.SubsetOf(t.Tree.Aliases()) {
			return false
		}
	}
	return true
}

// joinPair is one candidate join: its action kind and the two operand trees —
// a leaf over a free materialized expression or an open planned tree — in the
// order the action names them.
type joinPair struct {
	kind ActionKind
	l, r *plan.Node
}

func (p joinPair) action() Action { return Action{Kind: p.kind, A: p.l.Key(), B: p.r.Key()} }

// joinBuf holds the slices joinPairs fills, reused from call to call: a model
// enumerates joins for every Legal call and every rollout step.
type joinBuf struct {
	free, open []*plan.Node
	pairs      []joinPair
}

// joinPairs enumerates the join actions of §4.2 under the pruning rules of
// DESIGN.md §3 — a join must enable a predicate or make a term evaluable,
// non-Σ-copy planned trees stay pairwise alias-disjoint, and cross products
// open up only when nothing connected remains — together with the open
// (Σ-free, non-Σ-copy) planned trees it drew operands from. Both the legal
// action list and the rollout policy read their joins from here, so they
// agree on the set and on its order. The slices returned are b's, valid until
// its next call.
func (b *joinBuf) joinPairs(s *State, q *query.Query) (pairs []joinPair, openPlanned []*plan.Node) {
	// Materialized entries not consumed by a pending (non-Σ-copy) plan.
	freeMats := b.free[:0]
	for i, a := range s.Active {
		used := false
		for _, t := range s.Planned {
			if !t.SigmaCopy && t.Tree.Aliases().Intersects(a) {
				used = true
				break
			}
		}
		if !used {
			freeMats = append(freeMats, s.leaves[i])
		}
	}
	openPlanned, pairs = b.open[:0], b.pairs[:0]
	for _, t := range s.Planned {
		if !t.SigmaCopy && !t.Tree.Sigma {
			openPlanned = append(openPlanned, t.Tree)
		}
	}

	connected := func(l, r *plan.Node) bool { return q.Connected(l.Aliases(), r.Aliases()) }
	for i, l := range freeMats {
		for _, r := range freeMats[i+1:] {
			if connected(l, r) {
				pairs = append(pairs, joinPair{ActJoinMats, l, r})
			}
		}
	}
	for i, l := range openPlanned {
		for _, r := range openPlanned[i+1:] {
			if connected(l, r) {
				pairs = append(pairs, joinPair{ActJoinPlanned, l, r})
			}
		}
	}
	for _, l := range freeMats {
		for _, r := range openPlanned {
			if connected(l, r) {
				pairs = append(pairs, joinPair{ActJoinMatPlanned, l, r})
			}
		}
	}
	// Cross-product fallback: only when no connected join exists anywhere.
	if len(pairs) == 0 && len(openPlanned) == 0 {
		for i, l := range freeMats {
			for _, r := range freeMats[i+1:] {
				pairs = append(pairs, joinPair{ActJoinMats, l, r})
			}
		}
	}
	b.free, b.open, b.pairs = freeMats, openPlanned, pairs
	return pairs, openPlanned
}

// legalActions enumerates A_s for the state (§4.2): the joins of joinPairs,
// Σ actions whose target is useful, and EXECUTE once anything is planned.
func legalActions(s *State, q *query.Query, b *joinBuf) []Action {
	if s.Terminal() {
		return nil
	}
	pairs, openPlanned := b.joinPairs(s, q)
	acts := make([]Action, 0, len(pairs)+len(s.Active)+len(openPlanned)+2)
	for _, p := range pairs {
		acts = append(acts, p.action())
	}

	// Σ-copy from Re (allowed even for entries consumed by pending plans —
	// the copy is a side computation).
	for _, m := range s.Active {
		key := m.Key()
		if s.findPlanned(key) >= 0 {
			continue // already planned (as Σ-copy or otherwise)
		}
		if own := q.Own(m); usefulSigmaTerm(s, q, own) || usefulSigmaCount(s, q, own) {
			acts = append(acts, Action{Kind: ActSigmaCopy, A: key})
		}
	}
	// Σ-wrap a planned tree.
	for _, t := range openPlanned {
		if usefulSigmaTerm(s, q, q.Own(t.Aliases())) {
			acts = append(acts, Action{Kind: ActSigmaWrap, A: t.Key()})
		}
	}

	// Single-relation queries: the only way to terminate is to materialize
	// the filtered scan itself.
	if s.full.Size() == 1 && s.findPlanned(s.full.Key()) < 0 {
		acts = append(acts, Action{Kind: ActMaterialize, A: s.full.Key()})
	}

	if len(s.Planned) > 0 {
		acts = append(acts, Action{Kind: ActExecute})
	}
	return acts
}

// applyPlanEdit applies a deterministic (non-Execute) action, returning a new
// state that shares the frontier and the statistics store.
func applyPlanEdit(s *State, q *query.Query, a Action) (*State, error) {
	n := s.clone(false)
	if err := n.edit(a, nil); err != nil {
		return nil, err
	}
	return n, nil
}

// edit applies the deterministic (non-Execute) action a to s in place: the
// plan-edit half of the transition, shared by Step and the playout. s must
// own its Planned slice; the frontier is only read. New plan nodes come from
// nodes, the nil arena being the heap.
func (s *State) edit(a Action, nodes *plan.Arena) error {
	switch a.Kind {
	case ActSigmaCopy:
		i := s.findActive(a.A)
		if i < 0 {
			return fmt.Errorf("core: Σ-copy target %q not active", a.A)
		}
		s.Planned = append(s.Planned, PlannedTree{Tree: nodes.WithSigma(s.leaves[i]), SigmaCopy: true})
	case ActSigmaWrap:
		i := s.findPlanned(a.A)
		if i < 0 {
			return fmt.Errorf("core: Σ-wrap target %q not planned", a.A)
		}
		s.Planned[i].Tree = nodes.WithSigma(s.Planned[i].Tree)
	case ActJoinMats:
		i, j := s.findActive(a.A), s.findActive(a.B)
		if i < 0 || j < 0 {
			return fmt.Errorf("core: join-mats operands %q, %q not active", a.A, a.B)
		}
		s.Planned = append(s.Planned, PlannedTree{Tree: nodes.Join(s.leaves[i], s.leaves[j])})
	case ActJoinPlanned:
		i, j := s.findPlanned(a.A), s.findPlanned(a.B)
		if i < 0 || j < 0 || i == j {
			return fmt.Errorf("core: join-planned operands %q, %q not planned", a.A, a.B)
		}
		joined := nodes.Join(s.Planned[i].Tree, s.Planned[j].Tree)
		keep := s.Planned[:0]
		for k, t := range s.Planned {
			if k != i && k != j {
				keep = append(keep, t)
			}
		}
		s.Planned = append(keep, PlannedTree{Tree: joined})
	case ActMaterialize:
		i := s.findActive(a.A)
		if i < 0 {
			return fmt.Errorf("core: materialize target %q not active", a.A)
		}
		s.Planned = append(s.Planned, PlannedTree{Tree: s.leaves[i]})
	case ActJoinMatPlanned:
		i := s.findActive(a.A)
		j := s.findPlanned(a.B)
		if i < 0 || j < 0 {
			return fmt.Errorf("core: join-mat-planned operands %q, %q missing", a.A, a.B)
		}
		s.Planned[j] = PlannedTree{Tree: nodes.Join(s.leaves[i], s.Planned[j].Tree)}
	default:
		return fmt.Errorf("core: plan edit %v", a)
	}
	return nil
}

// settleExecution updates the Re frontier after all of Rp has been
// materialized: every non-Σ-copy tree replaces the active entries it
// consumed, and its cover is inserted in key order with a leaf from nodes;
// Σ-copies leave the frontier unchanged. Planned becomes empty. The frontier
// is edited in place, so s must own it (ownFrontier): a settled tree consumes
// at least one entry, so the insertion never outgrows the slices.
func settleExecution(s *State, nodes *plan.Arena) {
	for _, t := range s.Planned {
		if t.Tree.Aliases().Equal(s.full) {
			s.done = true
		}
		if t.SigmaCopy {
			continue
		}
		cover, key := t.Tree.Aliases(), t.Tree.Key()
		kept := 0
		for i, a := range s.Active {
			if !a.SubsetOf(cover) {
				s.Active[kept], s.leaves[kept] = a, s.leaves[i]
				kept++
			}
		}
		s.Active, s.leaves = s.Active[:kept], s.leaves[:kept]
		at := slices.IndexFunc(s.Active, func(a query.AliasSet) bool { return key < a.Key() })
		if at < 0 {
			at = kept
		}
		s.Active = slices.Insert(s.Active, at, cover)
		s.leaves = slices.Insert(s.leaves, at, nodes.Leaf(cover))
	}
	s.Planned = s.Planned[:0]
}
