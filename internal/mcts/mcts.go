// Package mcts is the online MDP solver of §5.1: Monte-Carlo tree search
// with two selection strategies — UCT (upper confidence bound for trees,
// w = √2, rewards min-max normalized to [0,1]) and adaptive ε-greedy
// (ε decaying 1 → 0.1 with iteration progress).
//
// Transitions may be stochastic (the EXECUTE action of the Monsoon MDP):
// the tree keeps a chance layer under each such action, keyed by the
// successor state's outcome key, so that recurring sampled outcomes — e.g.
// the atoms of a spike-and-slab prior — share and refine one subtree.
package mcts

import (
	"math"
	"math/rand"
)

// State is an MDP state as seen by the planner.
type State interface {
	// Terminal reports whether the episode is over.
	Terminal() bool
	// AppendOutcomeKey appends the key bucketing this state among the
	// possible outcomes of a stochastic transition to b; it only needs to
	// discriminate between materially different sampled worlds. The search
	// renders every key into one buffer it reuses.
	AppendOutcomeKey(b []byte) []byte
	// CloneForSearch returns the copy of the state one search shard works
	// from (core's State gives every shard a private overlay of its
	// statistics store). The planner makes every shard's copy on the calling
	// goroutine before any shard runs.
	CloneForSearch() State
}

// Action is an MDP action; Key must uniquely identify it within its state.
type Action interface {
	Key() string
}

// Model is the MDP simulator MCTS plans against.
type Model interface {
	// Legal enumerates the actions available in s; empty means terminal or
	// stuck (treated as terminal). The search calls it once per node it
	// descends into, never for a node it only created, and the caller shares
	// the list among goroutines: it must be deterministic per state, and the
	// actions are never written.
	Legal(s State) []Action
	// Step simulates taking a in s. It must not mutate s. stochastic
	// reports whether the transition sampled randomness (a chance node);
	// false promises the same successor and reward on every call, and the
	// search then steps such an edge once and keeps what it got.
	Step(s State, a Action) (next State, reward float64, stochastic bool)
	// Fork returns an independent simulator seeded from seed, safe to drive
	// from another goroutine: the planner searches every shard on a fork of
	// its own.
	Fork(seed int64) Model
	// Playout plays the default policy from s — the model's own pick, then
	// Step, until a terminal state, a state it has no pick for, or steps
	// transitions — drawing from rng, and returns the rewards summed in
	// order. It must not mutate s.
	Playout(s State, rng *rand.Rand, steps int) float64
}

// Strategy selects among the two §5.1 selection strategies.
type Strategy uint8

// The selection strategies.
const (
	UCT Strategy = iota
	EpsGreedy
)

// The selection rules' constants: UCT's exploration weight w and the ε-greedy
// floor; and maxDepth, the safety net that caps a simulation's length.
const (
	uctWeight = math.Sqrt2
	epsMin    = 0.1
	maxDepth  = 200
)

// Config parameterizes a Planner.
type Config struct {
	// Strategy picks the selection rule; default UCT.
	Strategy Strategy
	// Iterations is the rollout budget per planning call.
	Iterations int
	// Shards fixes the logical worker count — the unit of determinism. 0
	// derives it from the budget: max(1, min(DefaultShards, Iterations/minShardQuota)).
	Shards int
}

// PlanStats describes the search behind one Plan call, for
// observability: how much work the planner did and how deep it looked.
type PlanStats struct {
	// RootActions is the number of legal actions at the planning root.
	RootActions int
	// Rollouts is the number of simulation passes actually run; 0 when the
	// root had at most one action (the fast path skips the search).
	Rollouts int
	// MaxDepth is the deepest tree (selection) depth any pass reached.
	MaxDepth int
	// Nodes is the number of decision nodes created.
	Nodes int
	// FastPath marks a call decided without search (≤ 1 legal action).
	FastPath bool
	// Workers is the number of OS threads the search actually ran on: at
	// most GOMAXPROCS and the shard count, and 1 on the fast path; plans are
	// identical for every value.
	Workers int
}

// tree is one search shard's tree search: it runs its quota of passes over a
// tree of its own, with its own rng, and keeps the statistics of its search.
// It is not safe for concurrent use.
type tree struct {
	cfg Config
	rng *rand.Rand

	minRet, maxRet float64
	haveRet        bool
	stats          PlanStats
	// key is the buffer outcome keys are rendered into.
	key []byte
}

type edge struct {
	action Action
	visits int
	total  float64
	// A deterministic edge keeps its one successor, and the reward of
	// reaching it, here: a revisit costs neither a Step nor an OutcomeKey.
	only   *node
	reward float64
	// kids is the chance layer of a stochastic edge: outcome key → successor
	// decision node.
	kids map[string]*node
}

// node is a decision node. It lists its actions the first time the search
// descends into it: most nodes only start a playout and are never entered,
// and those cost no Legal call and no edge slice.
type node struct {
	state   State
	actions []Action
	edges   []*edge
	visits  int
	listed  bool
}

func (t *tree) newNode(s State) *node {
	t.stats.Nodes++
	return &node{state: s}
}

// list gives n its legal actions, one unexpanded edge each.
func (n *node) list(actions []Action) {
	n.actions, n.edges, n.listed = actions, make([]*edge, len(actions)), true
}

// search runs the configured iteration budget from root.
func (t *tree) search(m Model, root *node) {
	for i := 0; i < t.cfg.Iterations; i++ {
		t.simulate(m, root, 0, i)
		t.stats.Rollouts++
	}
}

// settle returns the action with the best average return at n: n's first
// action when no edge was visited.
func settle(n *node) Action {
	if best := bestVisited(n); best >= 0 {
		return n.actions[best]
	}
	return n.actions[0]
}

// bestVisited returns the index of the visited edge with the best average
// return, -1 when no edge was visited.
func bestVisited(n *node) int {
	best := -1
	bestVal := math.Inf(-1)
	for i, e := range n.edges {
		if e == nil || e.visits == 0 {
			continue
		}
		v := e.total / float64(e.visits)
		if v > bestVal {
			bestVal = v
			best = i
		}
	}
	return best
}

// simulate runs one selection→expansion→rollout→backpropagation pass and
// returns the cumulative return observed from n downward.
func (t *tree) simulate(m Model, n *node, depth, iter int) float64 {
	if depth > t.stats.MaxDepth {
		t.stats.MaxDepth = depth
	}
	if n.state.Terminal() || depth >= maxDepth {
		return 0
	}
	if !n.listed {
		n.list(m.Legal(n.state))
	}
	if len(n.actions) == 0 {
		return 0
	}
	idx := t.selectEdge(n, iter)
	e := n.edges[idx]
	freshlyExpanded := e == nil
	if freshlyExpanded {
		e = &edge{action: n.actions[idx]}
		n.edges[idx] = e
	}
	child, reward := e.only, e.reward
	if child == nil {
		next, r, stochastic := m.Step(n.state, e.action)
		reward = r
		if !stochastic {
			child = t.newNode(next)
			e.only, e.reward = child, r
		} else {
			// The lookup reads the buffer in place; only a new child's key
			// becomes a string.
			t.key = next.AppendOutcomeKey(t.key[:0])
			if child = e.kids[string(t.key)]; child == nil {
				child = t.newNode(next)
				if e.kids == nil {
					e.kids = make(map[string]*node)
				}
				e.kids[string(t.key)] = child
			}
		}
	}
	var ret float64
	if freshlyExpanded {
		// The model plays the default policy to a terminal state, within the
		// transitions maxDepth leaves below the child.
		ret = reward + m.Playout(child.state, t.rng, maxDepth-depth-1)
	} else {
		ret = reward + t.simulate(m, child, depth+1, iter)
	}
	e.visits++
	e.total += ret
	n.visits++
	child.visits++
	t.observe(ret)
	return ret
}

func (t *tree) observe(ret float64) {
	if !t.haveRet {
		t.minRet, t.maxRet, t.haveRet = ret, ret, true
		return
	}
	if ret < t.minRet {
		t.minRet = ret
	}
	if ret > t.maxRet {
		t.maxRet = ret
	}
}

// normalize maps a return into [0,1] using the running min/max.
func (t *tree) normalize(ret float64) float64 {
	if !t.haveRet || t.maxRet == t.minRet {
		return 0.5
	}
	return (ret - t.minRet) / (t.maxRet - t.minRet)
}

func (t *tree) selectEdge(n *node, iter int) int {
	switch t.cfg.Strategy {
	case EpsGreedy:
		return t.selectEpsGreedy(n, iter)
	default:
		return t.selectUCT(n)
	}
}

// selectUCT returns an unvisited edge if any (expansion), else the UCB1
// maximizer r̄ + w·√(ln v_p / v_c).
func (t *tree) selectUCT(n *node) int {
	for i, e := range n.edges {
		if e == nil || e.visits == 0 {
			return i
		}
	}
	best, bestVal := 0, math.Inf(-1)
	lnP := math.Log(float64(n.visits) + 1)
	for i, e := range n.edges {
		exploit := t.normalize(e.total / float64(e.visits))
		explore := uctWeight * math.Sqrt(lnP/float64(e.visits))
		if v := exploit + explore; v > bestVal {
			bestVal = v
			best = i
		}
	}
	return best
}

// selectEpsGreedy explores with probability ε (decayed exponentially from 1
// toward epsMin over the iteration budget, after [40]) and exploits the best
// average return otherwise. Unvisited edges are preferred while exploring.
func (t *tree) selectEpsGreedy(n *node, iter int) int {
	eps := math.Exp(-4 * float64(iter) / float64(t.cfg.Iterations))
	if eps < epsMin {
		eps = epsMin
	}
	if t.rng.Float64() < eps {
		var unvisited []int
		for i, e := range n.edges {
			if e == nil || e.visits == 0 {
				unvisited = append(unvisited, i)
			}
		}
		if len(unvisited) > 0 {
			return unvisited[t.rng.Intn(len(unvisited))]
		}
		return t.rng.Intn(len(n.edges))
	}
	best, bestVal := -1, math.Inf(-1)
	for i, e := range n.edges {
		if e == nil || e.visits == 0 {
			continue
		}
		if v := e.total / float64(e.visits); v > bestVal {
			bestVal = v
			best = i
		}
	}
	if best < 0 {
		return t.rng.Intn(len(n.edges))
	}
	return best
}
