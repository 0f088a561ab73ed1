package mcts

import (
	"math/rand"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"monsoon/internal/randx"
)

// stepPlayout is the default-policy loop a Model's Playout stands for: pick,
// then Step, from s until a terminal state, a nil pick or steps transitions,
// rewards summed in order.
func stepPlayout(m Model, pick func(State, *rand.Rand) Action, s State, rng *rand.Rand, steps int) float64 {
	total := 0.0
	for ; steps > 0 && !s.Terminal(); steps-- {
		a := pick(s, rng)
		if a == nil {
			break
		}
		next, reward, _ := m.Step(s, a)
		total += reward
		s = next
	}
	return total
}

// uniformPlayout is the stepped loop under the uniform default policy: a
// legal action drawn uniformly from rng, nil when there is none.
func uniformPlayout(m Model, s State, rng *rand.Rand, steps int) float64 {
	return stepPlayout(m, func(s State, rng *rand.Rand) Action {
		legal := m.Legal(s)
		if len(legal) == 0 {
			return nil
		}
		return legal[rng.Intn(len(legal))]
	}, s, rng, steps)
}

// treePlan searches one tree from root — the search a one-shard Planner runs
// on its shard's streams — and returns the action and the statistics Plan
// would report for it.
func treePlan(cfg Config, rng *rand.Rand, m Model, root State) (Action, PlanStats) {
	t := &tree{cfg: cfg, rng: rng}
	n := t.newNode(root)
	if !root.Terminal() {
		n.list(m.Legal(root))
	}
	t.search(m, n)
	st := t.stats
	st.RootActions, st.Workers = len(n.actions), 1
	return settle(n), st
}

// --- toy MDP 1: a one-shot bandit ---------------------------------------

type banditState struct{ done bool }

func (s banditState) Terminal() bool                   { return s.done }
func (s banditState) AppendOutcomeKey(b []byte) []byte { return b }
func (s banditState) CloneForSearch() State            { return s }

type banditAction int

func (a banditAction) Key() string { return strconv.Itoa(int(a)) }

// bandit has arms with deterministic rewards; arm 2 is best.
type bandit struct{}

func (bandit) Legal(s State) []Action {
	if s.(banditState).done {
		return nil
	}
	return []Action{banditAction(0), banditAction(1), banditAction(2), banditAction(3)}
}

func (bandit) Step(_ State, a Action) (State, float64, bool) {
	rewards := []float64{-10, -5, -1, -7}
	return banditState{done: true}, rewards[a.(banditAction)], false
}

func (bandit) Fork(int64) Model { return bandit{} }
func (b bandit) Playout(s State, rng *rand.Rand, steps int) float64 {
	return uniformPlayout(b, s, rng, steps)
}

func TestBanditBothStrategies(t *testing.T) {
	for _, strat := range []Strategy{UCT, EpsGreedy} {
		a, _ := treePlan(Config{Strategy: strat, Iterations: 400}, randx.New(1), bandit{}, banditState{})
		if a.(banditAction) != 2 {
			t.Errorf("strategy %d picked arm %v, want 2", strat, a)
		}
	}
}

// --- toy MDP 2: probe-or-guess (the Monsoon decision in miniature) -------
//
// A hidden coin is 0 or 1. Guessing blind costs 0 if right, -100 if wrong
// (expected -50). Probing costs -10 and reveals the coin, after which the
// agent can guess with certainty. The optimal first action is PROBE: it
// requires the planner to propagate value through a chance node.

type probeState struct {
	revealed bool
	coin     int // valid when revealed
	done     bool
}

func (s probeState) Terminal() bool { return s.done }
func (s probeState) AppendOutcomeKey(b []byte) []byte {
	if s.revealed {
		return strconv.AppendInt(append(b, "coin"...), int64(s.coin), 10)
	}
	return b
}
func (s probeState) CloneForSearch() State { return s }

type probeAction string

func (a probeAction) Key() string { return string(a) }

type probeGame struct{ rng *rand.Rand }

func (g *probeGame) Legal(s State) []Action {
	ps := s.(probeState)
	if ps.done {
		return nil
	}
	if ps.revealed {
		return []Action{probeAction("guess0"), probeAction("guess1")}
	}
	return []Action{probeAction("guess0"), probeAction("guess1"), probeAction("probe")}
}

func (g *probeGame) Step(s State, a Action) (State, float64, bool) {
	ps := s.(probeState)
	switch a.(probeAction) {
	case "probe":
		coin := g.rng.Intn(2)
		return probeState{revealed: true, coin: coin}, -10, true
	default:
		guess := 0
		if a.(probeAction) == "guess1" {
			guess = 1
		}
		coin := ps.coin
		if !ps.revealed {
			coin = g.rng.Intn(2)
		}
		r := 0.0
		if guess != coin {
			r = -100
		}
		return probeState{done: true}, r, !ps.revealed
	}
}

// Fork gives a search shard a game of its own RNG.
func (g *probeGame) Fork(seed int64) Model { return &probeGame{rng: randx.New(seed)} }
func (g *probeGame) Playout(s State, rng *rand.Rand, steps int) float64 {
	return uniformPlayout(g, s, rng, steps)
}

func TestProbeOrGuess(t *testing.T) {
	for _, strat := range []Strategy{UCT, EpsGreedy} {
		rng := randx.New(42)
		g := &probeGame{rng: rng}
		a, _ := treePlan(Config{Strategy: strat, Iterations: 4000}, rng, g, probeState{})
		if a.Key() != "probe" {
			t.Errorf("strategy %d chose %q, want probe", strat, a.Key())
		}
	}
}

func TestProbeThenCorrectGuess(t *testing.T) {
	rng := randx.New(7)
	g := &probeGame{rng: rng}
	for coin := 0; coin < 2; coin++ {
		s := probeState{revealed: true, coin: coin}
		a, _ := treePlan(Config{Iterations: 500}, rng, g, s)
		want := "guess" + strconv.Itoa(coin)
		if a.Key() != want {
			t.Errorf("after reveal of %d chose %q, want %q", coin, a.Key(), want)
		}
	}
}

func TestTerminalRootReturnsNil(t *testing.T) {
	p := New(Config{}, 1)
	if a, _ := p.Plan(bandit{}, banditState{done: true}, 1, nil, nil); a != nil {
		t.Errorf("terminal root must plan nil, got %v", a)
	}
}

// singleGame has exactly one legal action; Plan must short-circuit.
type singleGame struct{ steps int }

func (g *singleGame) Legal(s State) []Action {
	if s.(banditState).done {
		return nil
	}
	return []Action{banditAction(0)}
}

func (g *singleGame) Step(s State, a Action) (State, float64, bool) {
	g.steps++
	return banditState{done: true}, -1, false
}

func (g *singleGame) Fork(int64) Model { return g }
func (g *singleGame) Playout(s State, rng *rand.Rand, steps int) float64 {
	return uniformPlayout(g, s, rng, steps)
}

func TestSingleActionShortCircuit(t *testing.T) {
	g := &singleGame{}
	p := New(Config{Iterations: 1000}, 1)
	a, _ := p.Plan(g, banditState{}, 1, nil, nil)
	if a == nil || a.Key() != "0" {
		t.Fatalf("Plan = %v", a)
	}
	if g.steps != 0 {
		t.Errorf("single-action root must not simulate, did %d steps", g.steps)
	}
}

// --- rollout bias ---------------------------------------------------------

// chainGame needs depth-d lookahead: only one action sequence avoids a
// penalty, and its biased rollout policy finds it immediately.
type chainState struct{ pos, depth int }

func (s chainState) Terminal() bool                   { return s.pos >= s.depth }
func (s chainState) AppendOutcomeKey(b []byte) []byte { return b }
func (s chainState) CloneForSearch() State            { return s }

type chainGame struct {
	depth       int
	rolloutUsed bool
}

func (g *chainGame) Legal(s State) []Action {
	if s.(chainState).Terminal() {
		return nil
	}
	return []Action{banditAction(0), banditAction(1)}
}

func (g *chainGame) Step(s State, a Action) (State, float64, bool) {
	cs := s.(chainState)
	r := 0.0
	if a.(banditAction) != 0 {
		r = -1
	}
	return chainState{pos: cs.pos + 1, depth: cs.depth}, r, false
}

func (g *chainGame) Fork(int64) Model { return g }

// Playout steps the biased policy: always the good move.
func (g *chainGame) Playout(s State, rng *rand.Rand, steps int) float64 {
	return stepPlayout(g, func(State, *rand.Rand) Action {
		g.rolloutUsed = true
		return banditAction(0)
	}, s, rng, steps)
}

// playChain is chainGame with a Playout that only counts and checks its
// budget. A chain state's position is its depth below the root, so the budget
// the planner hands over is known.
type playChain struct {
	chainGame
	plays  int
	budget func(pos, steps int)
}

func (g *playChain) Playout(s State, _ *rand.Rand, steps int) float64 {
	g.plays++
	g.budget(s.(chainState).pos, steps)
	return 0
}

// TestPlayoutModelTakesTheRollout: the model's Playout plays the whole
// default-policy phase, once per iteration — the planner steps no rollout
// itself — with the transitions maxDepth leaves below the rollout's start.
func TestPlayoutModelTakesTheRollout(t *testing.T) {
	g := &playChain{chainGame: chainGame{depth: 1 << 30}}
	g.budget = func(pos, steps int) {
		if steps != maxDepth-pos {
			t.Errorf("playout from depth %d got %d steps, want %d", pos, steps, maxDepth-pos)
		}
	}
	treePlan(Config{Iterations: 50}, randx.New(5), g, chainState{depth: 1 << 30})
	if g.plays != 50 {
		t.Errorf("%d playouts for 50 iterations", g.plays)
	}
	if g.rolloutUsed {
		t.Error("the planner played chainGame's rollout instead of the model's own")
	}
}

func TestMaxDepthStopsRunawayRollouts(t *testing.T) {
	// depth larger than maxDepth: the planner must still return.
	g := &chainGame{depth: 1 << 30}
	if a, _ := treePlan(Config{Iterations: 50}, randx.New(5), g, chainState{depth: 1 << 30}); a == nil {
		t.Error("Plan must return despite unreachable terminal")
	}
}

func TestNormalizeDegenerate(t *testing.T) {
	p := &tree{rng: randx.New(1)}
	if v := p.normalize(5); v != 0.5 {
		t.Errorf("normalize before observations = %v, want 0.5", v)
	}
	p.observe(3)
	if v := p.normalize(3); v != 0.5 {
		t.Errorf("normalize with equal min/max = %v, want 0.5", v)
	}
	p.observe(7)
	if v := p.normalize(7); v != 1 {
		t.Errorf("normalize(max) = %v, want 1", v)
	}
	if v := p.normalize(3); v != 0 {
		t.Errorf("normalize(min) = %v, want 0", v)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() string {
		rng := randx.New(11)
		g := &probeGame{rng: rng}
		a, _ := treePlan(Config{Iterations: 300}, rng, g, probeState{})
		return a.Key()
	}
	if run() != run() {
		t.Error("same seed must give the same plan")
	}
}

// --- lazy listing ------------------------------------------------------------

// countState is a state of countGame that counts how often Legal listed it.
type countState struct {
	depth, coin int
	listed      int
}

func (s *countState) Terminal() bool { return s.depth >= 4 }
func (s *countState) AppendOutcomeKey(b []byte) []byte {
	return strconv.AppendInt(b, int64(s.coin), 10)
}
func (s *countState) CloneForSearch() State { return &countState{depth: s.depth, coin: s.coin} }

// countGame is a four-step game of deterministic guesses and a stochastic
// probe that draws a coin of three faces. It counts its Legal calls in legal,
// which its forks share, and its playouts never call Legal.
type countGame struct {
	rng   *rand.Rand
	legal *atomic.Int64
}

func (g *countGame) Legal(s State) []Action {
	cs := s.(*countState)
	cs.listed++
	g.legal.Add(1)
	if cs.Terminal() {
		return nil
	}
	return []Action{probeAction("low"), probeAction("high"), probeAction("probe")}
}

func (g *countGame) Step(s State, a Action) (State, float64, bool) {
	cs := s.(*countState)
	next := &countState{depth: cs.depth + 1, coin: cs.coin}
	switch a.(probeAction) {
	case "probe":
		next.coin = g.rng.Intn(3)
		return next, -0.5, true
	case "low":
		return next, -float64(cs.coin), false
	default:
		return next, -float64(2 - cs.coin), false
	}
}

func (g *countGame) Fork(seed int64) Model { return &countGame{rng: randx.New(seed), legal: g.legal} }
func (g *countGame) Playout(s State, rng *rand.Rand, steps int) float64 {
	return stepPlayout(g, func(State, *rand.Rand) Action { return probeAction("low") }, s, rng, steps)
}

// walk calls visit on n and every node below it.
func walk(n *node, visit func(*node)) {
	visit(n)
	for _, e := range n.edges {
		if e == nil {
			continue
		}
		if e.only != nil {
			walk(e.only, visit)
		}
		for _, k := range e.kids {
			walk(k, visit)
		}
	}
}

// TestLegalOncePerEnteredNode: the search lists a node's actions when it
// first descends into it, once, and never lists a node it only created — the
// start of a playout, or a terminal state. PlanStats.Nodes still counts every
// node created.
func TestLegalOncePerEnteredNode(t *testing.T) {
	for _, strat := range []Strategy{UCT, EpsGreedy} {
		g := &countGame{rng: randx.New(3), legal: new(atomic.Int64)}
		tr := &tree{cfg: Config{Strategy: strat, Iterations: 300}, rng: randx.New(4)}
		root := tr.newNode(&countState{})
		tr.search(g, root)
		nodes, entered := 0, 0
		walk(root, func(n *node) {
			nodes++
			// An entered node of this game always expands an edge.
			in := slices.ContainsFunc(n.edges, func(e *edge) bool { return e != nil })
			want := 0
			if in {
				entered, want = entered+1, 1
			}
			if got := n.state.(*countState).listed; got != want {
				t.Errorf("strategy %d: a node at depth %d entered=%v was listed %d times", strat, n.state.(*countState).depth, in, got)
			}
		})
		if nodes != tr.stats.Nodes {
			t.Errorf("strategy %d: PlanStats.Nodes %d, the tree holds %d", strat, tr.stats.Nodes, nodes)
		}
		if got := int(g.legal.Load()); got != entered || entered >= nodes {
			t.Errorf("strategy %d: %d Legal calls for %d entered of %d nodes", strat, got, entered, nodes)
		}
	}
}
