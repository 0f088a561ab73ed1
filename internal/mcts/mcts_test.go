package mcts

import (
	"math/rand"
	"strconv"
	"testing"

	"monsoon/internal/randx"
)

// --- toy MDP 1: a one-shot bandit ---------------------------------------

type banditState struct{ done bool }

func (s banditState) Terminal() bool                   { return s.done }
func (s banditState) AppendOutcomeKey(b []byte) []byte { return b }

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

func TestBanditBothStrategies(t *testing.T) {
	for _, strat := range []Strategy{UCT, EpsGreedy} {
		p := New(Config{Strategy: strat, Iterations: 400}, randx.New(1))
		a := p.Plan(bandit{}, banditState{})
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

func TestProbeOrGuess(t *testing.T) {
	for _, strat := range []Strategy{UCT, EpsGreedy} {
		rng := randx.New(42)
		g := &probeGame{rng: rng}
		p := New(Config{Strategy: strat, Iterations: 4000}, rng)
		a := p.Plan(g, probeState{})
		if a.Key() != "probe" {
			t.Errorf("strategy %d chose %q, want probe", strat, a.Key())
		}
	}
}

func TestProbeThenCorrectGuess(t *testing.T) {
	rng := randx.New(7)
	g := &probeGame{rng: rng}
	p := New(Config{Iterations: 500}, rng)
	for coin := 0; coin < 2; coin++ {
		s := probeState{revealed: true, coin: coin}
		a := p.Plan(g, s)
		want := "guess" + strconv.Itoa(coin)
		if a.Key() != want {
			t.Errorf("after reveal of %d chose %q, want %q", coin, a.Key(), want)
		}
	}
}

func TestTerminalRootReturnsNil(t *testing.T) {
	p := New(Config{}, randx.New(1))
	if a := p.Plan(bandit{}, banditState{done: true}); a != nil {
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

func TestSingleActionShortCircuit(t *testing.T) {
	g := &singleGame{}
	p := New(Config{Iterations: 1000}, randx.New(1))
	a := p.Plan(g, banditState{})
	if a == nil || a.Key() != "0" {
		t.Fatalf("Plan = %v", a)
	}
	if g.steps != 0 {
		t.Errorf("single-action root must not simulate, did %d steps", g.steps)
	}
}

// --- rollout bias ---------------------------------------------------------

// chainGame needs depth-d lookahead: only one action sequence avoids a
// penalty, and a biased rollout policy finds it immediately.
type chainState struct{ pos, depth int }

func (s chainState) Terminal() bool                   { return s.pos >= s.depth }
func (s chainState) AppendOutcomeKey(b []byte) []byte { return b }

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

func (g *chainGame) RolloutAction(s State, rng *rand.Rand) Action {
	g.rolloutUsed = true
	return banditAction(0) // always the good move
}

func TestRolloutModelIsUsed(t *testing.T) {
	g := &chainGame{depth: 6}
	p := New(Config{Iterations: 200}, randx.New(3))
	a := p.Plan(g, chainState{depth: 6})
	if !g.rolloutUsed {
		t.Error("RolloutModel must be consulted")
	}
	if a.(banditAction) != 0 {
		t.Errorf("biased rollouts should find the zero-cost chain, got %v", a)
	}
}

// playChain is chainGame playing its own rollouts. A chain state's position
// is its depth below the root, so the budget the planner hands over is known.
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

// TestPlayoutModelTakesTheRollout: a PlayoutModel plays the whole
// default-policy phase — the planner calls neither RolloutAction nor Step for
// it — with the transitions MaxDepth leaves below the rollout's start.
func TestPlayoutModelTakesTheRollout(t *testing.T) {
	const maxDepth = 20
	g := &playChain{chainGame: chainGame{depth: 1 << 30}}
	g.budget = func(pos, steps int) {
		if steps != maxDepth-pos {
			t.Errorf("playout from depth %d got %d steps, want %d", pos, steps, maxDepth-pos)
		}
	}
	p := New(Config{Iterations: 50, MaxDepth: maxDepth}, randx.New(5))
	p.Plan(g, chainState{depth: 1 << 30})
	if g.plays != 50 {
		t.Errorf("%d playouts for 50 iterations", g.plays)
	}
	if g.rolloutUsed {
		t.Error("the planner stepped a rollout a PlayoutModel plays itself")
	}
}

func TestMaxDepthStopsRunawayRollouts(t *testing.T) {
	// depth larger than MaxDepth: the planner must still return.
	g := &chainGame{depth: 1 << 30}
	p := New(Config{Iterations: 50, MaxDepth: 20}, randx.New(5))
	if a := p.Plan(g, chainState{depth: 1 << 30}); a == nil {
		t.Error("Plan must return despite unreachable terminal")
	}
}

func TestNormalizeDegenerate(t *testing.T) {
	p := New(Config{}, randx.New(1))
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

// TestPlanStatsLine: the principal variation starts with the picked action,
// descends to a terminal in the chain game, and degenerates to the forced
// action on the fast path.
func TestPlanStatsLine(t *testing.T) {
	g := &chainGame{depth: 4}
	p := New(Config{Iterations: 300}, randx.New(3))
	a := p.Plan(g, chainState{depth: 4})
	line := p.LastStats().Line
	if len(line) == 0 || line[0] != a.Key() {
		t.Fatalf("line %v must start with the picked action %q", line, a.Key())
	}
	if len(line) > 4 {
		t.Errorf("line %v longer than the game's depth", line)
	}
	for i, k := range line {
		if k != "0" {
			t.Errorf("line[%d] = %q, want the zero-cost chain action", i, k)
		}
	}

	sp := New(Config{Iterations: 100}, randx.New(1))
	sa := sp.Plan(&singleGame{}, banditState{})
	if l := sp.LastStats().Line; len(l) != 1 || l[0] != sa.Key() {
		t.Errorf("fast-path line = %v, want [%q]", l, sa.Key())
	}
	if tp := New(Config{}, randx.New(1)); tp.Plan(bandit{}, banditState{done: true}) != nil ||
		tp.LastStats().Line != nil {
		t.Error("terminal root must leave the line empty")
	}
}

// TestLineCrossesChanceNodes: in the probe game the settled line must be
// probe followed by the certainty guess of the most-visited outcome.
func TestLineCrossesChanceNodes(t *testing.T) {
	rng := randx.New(42)
	g := &probeGame{rng: rng}
	p := New(Config{Iterations: 4000}, rng)
	if a := p.Plan(g, probeState{}); a.Key() != "probe" {
		t.Fatalf("picked %q, want probe", a.Key())
	}
	line := p.LastStats().Line
	if len(line) < 2 || line[0] != "probe" {
		t.Fatalf("line = %v, want probe followed by a guess", line)
	}
	if line[1] != "guess0" && line[1] != "guess1" {
		t.Errorf("line[1] = %q, want a guess", line[1])
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() string {
		rng := randx.New(11)
		g := &probeGame{rng: rng}
		p := New(Config{Iterations: 300}, rng)
		return p.Plan(g, probeState{}).Key()
	}
	if run() != run() {
		t.Error("same seed must give the same plan")
	}
}
