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
}

// Action is an MDP action; Key must uniquely identify it within its state.
type Action interface {
	Key() string
}

// Model is the MDP simulator MCTS plans against.
type Model interface {
	// Legal enumerates the actions available in s; empty means terminal or
	// stuck (treated as terminal).
	Legal(s State) []Action
	// Step simulates taking a in s. It must not mutate s. stochastic
	// reports whether the transition sampled randomness (a chance node);
	// false promises the same successor and reward on every call, and the
	// search then steps such an edge once and keeps what it got.
	Step(s State, a Action) (next State, reward float64, stochastic bool)
}

// RolloutModel lets a model bias the default-policy phase; without it,
// rollouts pick uniformly among legal actions.
type RolloutModel interface {
	RolloutAction(s State, rng *rand.Rand) Action
}

// PlayoutModel lets a RolloutModel play the whole default-policy phase
// itself. Playout must return exactly what the planner's own loop would —
// RolloutAction, then Step, from s until a terminal state, a nil action or
// steps transitions, rewards summed in order — drawing from rng as that loop
// would; what it saves is the state the loop materializes at every step.
type PlayoutModel interface {
	RolloutModel
	Playout(s State, rng *rand.Rand, steps int) float64
}

// Strategy selects among the two §5.1 selection strategies.
type Strategy uint8

// The selection strategies.
const (
	UCT Strategy = iota
	EpsGreedy
)

// Config parameterizes a Planner.
type Config struct {
	// Strategy picks the selection rule; default UCT.
	Strategy Strategy
	// W is the UCT exploration weight; default √2.
	W float64
	// Iterations is the rollout budget per planning call; default 1000.
	Iterations int
	// MaxDepth caps simulation length as a safety net; default 200.
	MaxDepth int
	// EpsMin is the ε-greedy floor; default 0.1.
	EpsMin float64
}

func (c Config) withDefaults() Config {
	if c.W == 0 {
		c.W = math.Sqrt2
	}
	if c.Iterations == 0 {
		c.Iterations = 1000
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 200
	}
	if c.EpsMin == 0 {
		c.EpsMin = 0.1
	}
	return c
}

// PlanStats describes the search behind the most recent Plan call, for
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
	// Workers is the number of OS threads the search actually ran on: 1 for
	// the serial planner and for root-parallel searches forced serial (one
	// shard, unforkable model); plans are identical for every value.
	Workers int
	// Line is the principal variation the search settled on: the action key
	// MCTS picks at the root followed by the best-average action at each
	// successive decision node (descending through the most-visited outcome
	// of stochastic edges), until a terminal, unexpanded, or never-visited
	// node. The driver memoizes it in the plan cache and attaches it to plan
	// spans; on the fast path it holds just the forced action.
	Line []string
}

// Planner runs MCTS. It is not safe for concurrent use.
type Planner struct {
	cfg Config
	rng *rand.Rand

	minRet, maxRet float64
	haveRet        bool
	last           PlanStats
	// key is the buffer outcome keys are rendered into.
	key []byte
}

// LastStats reports the statistics of the most recent Plan call.
func (p *Planner) LastStats() PlanStats { return p.last }

// New creates a planner with the given configuration and randomness.
func New(cfg Config, rng *rand.Rand) *Planner {
	return &Planner{cfg: cfg.withDefaults(), rng: rng}
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

type node struct {
	state   State
	actions []Action
	edges   []*edge
	visits  int
}

func (p *Planner) newNode(m Model, s State) *node {
	n := &node{state: s}
	if !s.Terminal() {
		n.actions = m.Legal(s)
		n.edges = make([]*edge, len(n.actions))
	}
	p.last.Nodes++
	return n
}

// Plan runs the configured number of iterations from root and returns the
// action with the best average return, or nil if root is terminal/stuck.
func (p *Planner) Plan(m Model, root State) Action {
	p.last = PlanStats{Workers: 1}
	rootNode := p.newNode(m, root)
	p.last.RootActions = len(rootNode.actions)
	if len(rootNode.actions) == 0 {
		p.last.FastPath = true
		return nil
	}
	if len(rootNode.actions) == 1 {
		p.last.FastPath = true
		p.last.Line = []string{rootNode.actions[0].Key()}
		return rootNode.actions[0]
	}
	p.search(m, rootNode)
	p.last.Line = principalVariation(rootNode, p.cfg.MaxDepth)
	best := bestVisited(rootNode)
	if best < 0 {
		p.last.Line = []string{rootNode.actions[0].Key()}
		return rootNode.actions[0]
	}
	return rootNode.actions[best]
}

// search runs the configured iteration budget from rootNode. Factored out of
// Plan so the root-parallel planner can run one shard's quota against a
// shard-private tree with exactly the serial pass structure.
func (p *Planner) search(m Model, rootNode *node) {
	p.minRet, p.maxRet, p.haveRet = 0, 0, false
	for i := 0; i < p.cfg.Iterations; i++ {
		p.simulate(m, rootNode, 0, i)
		p.last.Rollouts++
	}
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

// principalVariation extracts the search's settled line of play: follow the
// best-average edge at each decision node, and the most-visited outcome
// (ties broken by key for determinism) under each stochastic edge.
func principalVariation(n *node, maxDepth int) []string {
	var line []string
	for n != nil && len(line) < maxDepth {
		i := bestVisited(n)
		if i < 0 {
			break
		}
		e := n.edges[i]
		line = append(line, e.action.Key())
		next := e.only
		bestVisits, bestKey := -1, ""
		for key, child := range e.kids {
			if child.visits > bestVisits || (child.visits == bestVisits && key < bestKey) {
				bestVisits, bestKey, next = child.visits, key, child
			}
		}
		n = next
	}
	return line
}

// simulate runs one selection→expansion→rollout→backpropagation pass and
// returns the cumulative return observed from n downward.
func (p *Planner) simulate(m Model, n *node, depth, iter int) float64 {
	if depth > p.last.MaxDepth {
		p.last.MaxDepth = depth
	}
	if n.state.Terminal() || len(n.actions) == 0 || depth >= p.cfg.MaxDepth {
		return 0
	}
	idx := p.selectEdge(n, iter)
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
			child = p.newNode(m, next)
			e.only, e.reward = child, r
		} else {
			// The lookup reads the buffer in place; only a new child's key
			// becomes a string.
			p.key = next.AppendOutcomeKey(p.key[:0])
			if child = e.kids[string(p.key)]; child == nil {
				child = p.newNode(m, next)
				if e.kids == nil {
					e.kids = make(map[string]*node)
				}
				e.kids[string(p.key)] = child
			}
		}
	}
	var ret float64
	if freshlyExpanded {
		ret = reward + p.rollout(m, child.state, depth+1)
	} else {
		ret = reward + p.simulate(m, child, depth+1, iter)
	}
	e.visits++
	e.total += ret
	n.visits++
	child.visits++
	p.observe(ret)
	return ret
}

// rollout plays the default policy to a terminal state.
func (p *Planner) rollout(m Model, s State, depth int) float64 {
	if pm, ok := m.(PlayoutModel); ok {
		return pm.Playout(s, p.rng, p.cfg.MaxDepth-depth)
	}
	total := 0.0
	rm, biased := m.(RolloutModel)
	for !s.Terminal() && depth < p.cfg.MaxDepth {
		var a Action
		if biased {
			a = rm.RolloutAction(s, p.rng)
		} else {
			legal := m.Legal(s)
			if len(legal) == 0 {
				break
			}
			a = legal[p.rng.Intn(len(legal))]
		}
		if a == nil {
			break
		}
		next, reward, _ := m.Step(s, a)
		total += reward
		s = next
		depth++
	}
	return total
}

func (p *Planner) observe(ret float64) {
	if !p.haveRet {
		p.minRet, p.maxRet, p.haveRet = ret, ret, true
		return
	}
	if ret < p.minRet {
		p.minRet = ret
	}
	if ret > p.maxRet {
		p.maxRet = ret
	}
}

// normalize maps a return into [0,1] using the running min/max.
func (p *Planner) normalize(ret float64) float64 {
	if !p.haveRet || p.maxRet == p.minRet {
		return 0.5
	}
	return (ret - p.minRet) / (p.maxRet - p.minRet)
}

func (p *Planner) selectEdge(n *node, iter int) int {
	switch p.cfg.Strategy {
	case EpsGreedy:
		return p.selectEpsGreedy(n, iter)
	default:
		return p.selectUCT(n)
	}
}

// selectUCT returns an unvisited edge if any (expansion), else the UCB1
// maximizer r̄ + w·√(ln v_p / v_c).
func (p *Planner) selectUCT(n *node) int {
	for i, e := range n.edges {
		if e == nil || e.visits == 0 {
			return i
		}
	}
	best, bestVal := 0, math.Inf(-1)
	lnP := math.Log(float64(n.visits) + 1)
	for i, e := range n.edges {
		exploit := p.normalize(e.total / float64(e.visits))
		explore := p.cfg.W * math.Sqrt(lnP/float64(e.visits))
		if v := exploit + explore; v > bestVal {
			bestVal = v
			best = i
		}
	}
	return best
}

// selectEpsGreedy explores with probability ε (decayed exponentially from 1
// toward EpsMin over the iteration budget, after [40]) and exploits the best
// average return otherwise. Unvisited edges are preferred while exploring.
func (p *Planner) selectEpsGreedy(n *node, iter int) int {
	eps := math.Exp(-4 * float64(iter) / float64(p.cfg.Iterations))
	if eps < p.cfg.EpsMin {
		eps = p.cfg.EpsMin
	}
	if p.rng.Float64() < eps {
		var unvisited []int
		for i, e := range n.edges {
			if e == nil || e.visits == 0 {
				unvisited = append(unvisited, i)
			}
		}
		if len(unvisited) > 0 {
			return unvisited[p.rng.Intn(len(unvisited))]
		}
		return p.rng.Intn(len(n.edges))
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
		return p.rng.Intn(len(n.edges))
	}
	return best
}
