// Package core is the paper's primary contribution: the Monsoon optimizer.
// It formalizes interleaved statistics collection and execution as a Markov
// decision process (§4) — states are (planned expressions Rp, materialized
// expressions Re, statistics S); actions build join trees, attach Σ
// statistics-collection operators, or EXECUTE; EXECUTE transitions are
// stochastic, hardening unknown statistics — and solves it online with
// Monte-Carlo tree search (§5.1) against a prior over distinct-value counts
// (§5.2). The Driver (§5.3) alternates MCTS planning with real execution on
// the engine until the query result is materialized.
package core

import (
	"fmt"
	"slices"
	"strings"

	"monsoon/internal/mcts"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/stats"
)

// PlannedTree is one entry of Rp.
type PlannedTree struct {
	Tree *plan.Node
	// SigmaCopy marks trees created by copying an already-materialized
	// expression from Re and topping it with Σ (§4.2 action 1). Such trees
	// are read-only side computations and are exempt from the pairwise
	// alias-disjointness the other planned trees keep.
	SigmaCopy bool
}

// State is the MDP state (§4.1). A state is never edited once a transition
// has returned it: plan edits copy Planned and share the frontier and the
// statistics store; EXECUTE transitions copy the frontier and overlay the
// store. Only a model's scratch world (see scratch) is edited in place, step
// after step.
type State struct {
	// Planned is Rp, in insertion order.
	Planned []PlannedTree
	// Active is the frontier of Re: materialized expressions whose alias
	// sets are pairwise disjoint and not subsumed by a larger materialized
	// expression. Sorted by key for determinism.
	Active []query.AliasSet
	// St is the statistics set S.
	St *stats.Store

	// leaves[i] is the plan leaf over Active[i], made once per frontier entry
	// and shared by every tree built on it: leaves are immutable.
	leaves []*plan.Node
	full   query.AliasSet // alias set of the whole query
	done   bool           // a materialization covering the full set has run
}

// NewInitialState builds the start state: no plans, every base relation
// active, and whatever statistics st already holds (raw input sizes at
// minimum; callers with partial knowledge may pre-seed more, §3.1). It binds
// st to q's alias universe, so every lookup the search makes is by word.
func NewInitialState(q *query.Query, st *stats.Store) *State {
	full := q.Aliases()
	st.Bind(full)
	// Singletons come in name order, which is key order for single aliases.
	s := &State{St: st, full: full, Active: full.Singletons()}
	s.leaves = make([]*plan.Node, len(s.Active))
	for i, a := range s.Active {
		s.leaves[i] = plan.NewLeaf(a)
	}
	return s
}

// Terminal reports whether the full query result has been materialized. A
// flag (set when an executed expression covers every alias) rather than an
// inspection of Active: for single-relation queries the full alias set is
// "active" from the start, yet its filtered result still has to be computed.
func (s *State) Terminal() bool { return s.done }

// clone copies the state for a transition to edit. Planned gets room for
// one more tree; the frontier is shared (see ownFrontier); the statistics
// store is shared unless withStats asks for a copy-on-write overlay.
func (s *State) clone(withStats bool) *State {
	c := *s
	c.Planned = make([]PlannedTree, len(s.Planned), len(s.Planned)+1)
	copy(c.Planned, s.Planned)
	if withStats {
		c.St = s.St.Overlay()
	}
	return &c
}

// ownFrontier gives a clone copies of the frontier slices it shares with the
// state it was cloned from, for settleExecution to edit.
func (s *State) ownFrontier() {
	s.Active = slices.Clone(s.Active)
	s.leaves = slices.Clone(s.leaves)
}

// CloneForSearch implements mcts.State: each root-parallel search shard
// plans from its own copy of the root state, over an overlay of the
// statistics store — so everything a shard reads during its search sits in
// frozen layers or in overlays of its own, and no shard takes the session
// store's lock.
func (s *State) CloneForSearch() mcts.State { return s.clone(true) }

// findPlanned locates a planned tree by its root key; -1 when absent. Rp and
// the frontier hold a dozen entries at most and every key is precomputed, so
// a scan beats an index that every transition would have to copy.
func (s *State) findPlanned(key string) int {
	for i, t := range s.Planned {
		if t.Tree.Key() == key {
			return i
		}
	}
	return -1
}

// findActive locates an active entry by key; -1 when absent.
func (s *State) findActive(key string) int {
	for i, a := range s.Active {
		if a.Key() == key {
			return i
		}
	}
	return -1
}

// OutcomeKey identifies the state for chance-node bucketing: the structure
// plus every statistic, counts log2-bucketed so that nearby sampled worlds
// share subtrees while materially different ones split (§5.1). It is also the
// state half of the plan-cache key, so its bytes are pinned.
func (s *State) OutcomeKey() string { return string(s.AppendOutcomeKey(nil)) }

// AppendOutcomeKey implements mcts.State: it appends OutcomeKey's bytes to b.
func (s *State) AppendOutcomeKey(b []byte) []byte {
	for _, t := range s.Planned {
		b = t.Tree.AppendString(b)
		b = append(b, ';')
	}
	b = append(b, '|')
	for _, a := range s.Active {
		b = append(b, a.Key()...)
		b = append(b, ';')
	}
	b = append(b, '|')
	return s.St.AppendBucketSignature(b)
}

// String renders the state for debugging.
func (s *State) String() string {
	var b strings.Builder
	b.WriteString("Rp={")
	for i, t := range s.Planned {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Tree.String())
	}
	b.WriteString("} Re*={")
	for i, a := range s.Active {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Key())
	}
	fmt.Fprintf(&b, "} |S|=%d+%d", s.St.CountEntries(), s.St.MeasuredEntries())
	return b.String()
}
