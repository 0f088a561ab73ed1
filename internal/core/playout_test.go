package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"monsoon/internal/bench/tpch"
	"monsoon/internal/bench/udf"
	"monsoon/internal/cost"
	"monsoon/internal/engine"
	"monsoon/internal/mcts"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/randx"
	"monsoon/internal/stats"
	"monsoon/internal/table"
)

// countingPrior counts the Miss calls a simulation makes through each of the
// model's two MissFns: Sample (EXECUTE's sampled world) and Mean (the greedy
// policy's pricing).
type countingPrior struct {
	prior.Prior
	samples, means int
}

func (c *countingPrior) Sample(rng *rand.Rand, cr, cs float64) float64 {
	c.samples++
	return c.Prior.Sample(rng, cr, cs)
}

func (c *countingPrior) Mean(cr, cs float64) float64 {
	c.means++
	return c.Prior.Mean(cr, cs)
}

// RolloutAction is the default policy's choice in s, made one state at a
// time: the action Playout takes from s, or nil when it takes none.
func (m *Model) RolloutAction(s mcts.State, rng *rand.Rand) mcts.Action {
	a, ok := m.rolloutAction(m.sim.reset(s.(*State)), rng)
	if !ok {
		return nil
	}
	return &a
}

// stepRollout is the stepped reference Playout must reproduce: RolloutAction,
// then Step into a new state, at most steps times. It reports every state it
// stepped into.
func stepRollout(m *Model, s mcts.State, rng *rand.Rand, steps int, seen func(*State)) float64 {
	total := 0.0
	for depth := 0; !s.Terminal() && depth < steps; depth++ {
		a := m.RolloutAction(s, rng)
		if a == nil {
			break
		}
		next, reward, _ := m.Step(s, a)
		total += reward
		s = next
		seen(next.(*State))
	}
	return total
}

// playoutCase is one query of the corpus in one simulator configuration.
type playoutCase struct {
	label   string
	q       *query.Query
	cat     *table.Catalog
	uniform bool
	profile *cost.CostProfile
}

// playoutCorpus is every query of the TPC-H and UDF suites at tiny scale,
// greedy and uniform, with and without a calibrated profile, over an
// unsharded and a 4-shard layout.
func playoutCorpus() []playoutCase {
	profile := &cost.CostProfile{
		Scan: cost.Rate{SecondsPerObject: 2e-9}, Reuse: cost.Rate{SecondsPerObject: 1e-9},
		HashBuild: cost.Rate{SecondsPerObject: 5e-9}, HashProbe: cost.Rate{SecondsPerObject: 3e-9},
		NestedLoop: cost.Rate{SecondsPerObject: 7e-9}, Sigma: cost.Rate{SecondsPerObject: 4e-9},
		Materialize: cost.Rate{SecondsPerObject: 1e-9}, Exchange: cost.Rate{SecondsPerObject: 6e-9},
	}
	var out []playoutCase
	for _, shards := range []int{1, 4} {
		type bound struct {
			q   *query.Query
			cat *table.Catalog
		}
		var qs []bound
		tcat := tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: 1})
		for _, q := range tpch.Queries() {
			qs = append(qs, bound{q, tcat})
		}
		for _, qc := range udf.Generate(udf.Config{Titles: 150, ScaleFactor: 0.001, Seed: 1}).All() {
			qs = append(qs, bound{qc.Query, qc.Cat})
		}
		for _, b := range qs {
			if shards > 1 {
				b.cat.Shard(shards) // idempotent: catalogs are shared by queries
			}
			for _, uniform := range []bool{false, true} {
				for _, prof := range []*cost.CostProfile{nil, profile} {
					out = append(out, playoutCase{
						label: fmt.Sprintf("%s S=%d uniform=%t profiled=%t", b.q.Name, shards, uniform, prof != nil),
						q:     b.q, cat: b.cat, uniform: uniform, profile: prof,
					})
				}
			}
		}
	}
	return out
}

// model builds the case's simulator around a counting prior.
func (c playoutCase) model(seed int64) (*Model, *countingPrior) {
	cp := &countingPrior{Prior: prior.Default()}
	return &Model{Q: c.q, Prior: cp, Rng: randx.New(seed), UniformRollout: c.uniform,
		Profile: c.profile, Shards: c.cat}, cp
}

// starts walks from the root by uniformly random legal actions, stepped by
// the walker model, and returns the root and the states 1–3 transitions deep.
func (c playoutCase) starts(walker *Model, rng *rand.Rand) []*State {
	st := stats.New()
	engine.New(c.cat).SeedBaseStats(c.q, st)
	s := NewInitialState(c.q, st)
	out := []*State{s}
	for depth := 0; depth < 3 && !s.Terminal(); depth++ {
		acts := walker.Legal(s)
		next, _, _ := walker.Step(s, acts[rng.Intn(len(acts))])
		s = next.(*State)
		out = append(out, s)
	}
	return out
}

// TestPlayoutMatchesStepRollout: the in-place playout is the planner's
// RolloutAction-and-Step loop, bit for bit. From the root and from states one
// to three transitions deep, on every corpus query, configuration and seed,
// two identically seeded models — one playing, one stepping — must return the
// identical reward, leave their Rngs and the planner's rng at the same
// position, and make the same number of Sample and Mean calls, under a
// generous step budget and under one that cuts the rollout off. One model
// pair serves all of a query's starts, so the playing model's scratch is
// reused across playouts as in a search, and the start state must read the
// same after the playout as before.
func TestPlayoutMatchesStepRollout(t *testing.T) {
	playouts := 0
	for _, c := range playoutCorpus() {
		for seed := int64(1); seed <= 3; seed++ {
			walker, _ := c.model(randx.Derive(seed, "walk"))
			stepper, stepPrior := c.model(seed)
			player, playPrior := c.model(seed)
			stepRng, playRng := randx.New(seed+100), randx.New(seed+100)
			for i, s := range c.starts(walker, randx.New(seed)) {
				for _, steps := range []int{200, 2} {
					before := s.OutcomeKey()
					want := stepRollout(stepper, s, stepRng, steps, func(*State) {})
					got := player.Playout(s, playRng, steps)
					label := fmt.Sprintf("%s seed %d start %d steps %d", c.label, seed, i, steps)
					if got != want {
						t.Fatalf("%s: playout reward %v, stepped rollout %v", label, got, want)
					}
					if playPrior.samples != stepPrior.samples || playPrior.means != stepPrior.means {
						t.Fatalf("%s: playout made %d/%d Sample/Mean calls, stepped rollout %d/%d",
							label, playPrior.samples, playPrior.means, stepPrior.samples, stepPrior.means)
					}
					// One draw from each side: equal streams stay equal.
					if a, b := player.Rng.Int63(), stepper.Rng.Int63(); a != b {
						t.Fatalf("%s: model Rngs diverged (%d vs %d)", label, a, b)
					}
					if a, b := playRng.Int63(), stepRng.Int63(); a != b {
						t.Fatalf("%s: planner rngs diverged (%d vs %d)", label, a, b)
					}
					if after := s.OutcomeKey(); after != before {
						t.Fatalf("%s: the playout changed its start state:\n%s\n%s", label, before, after)
					}
					playouts++
				}
			}
		}
		// The whole search over four plan shards, two threads: the same
		// pick and statistics whether the model plays or steps rollouts.
		// Forks share the prior, which must then not count.
		play, _ := c.model(7)
		step, _ := c.model(7)
		play.Prior, step.Prior = prior.Default(), prior.Default()
		root := c.starts(play, randx.New(7))[0]
		cfg := mcts.Config{Iterations: 120, Shards: 4}
		pp, sp := mcts.New(cfg, 11), mcts.New(cfg, 11)
		prev := runtime.GOMAXPROCS(2)
		a, ast := pp.Plan(play, root, 1, nil, nil)
		b, bst := sp.Plan(steppedModel{step}, root, 1, nil, nil)
		runtime.GOMAXPROCS(prev)
		if a.Key() != b.Key() || !reflect.DeepEqual(ast, bst) {
			t.Fatalf("%s: played search picked %s %+v, stepped %s %+v",
				c.label, a.Key(), ast, b.Key(), bst)
		}
	}
	t.Logf("%d playouts matched", playouts)
}

// steppedModel is a Model whose rollouts are stepped: it forwards everything
// but Playout, which is stepRollout.
type steppedModel struct{ m *Model }

func (s steppedModel) Legal(st mcts.State) []mcts.Action { return s.m.Legal(st) }
func (s steppedModel) Step(st mcts.State, a mcts.Action) (mcts.State, float64, bool) {
	return s.m.Step(st, a)
}
func (s steppedModel) Playout(st mcts.State, rng *rand.Rand, steps int) float64 {
	return stepRollout(s.m, st, rng, steps, func(*State) {})
}
func (s steppedModel) Fork(seed int64) mcts.Model { return steppedModel{s.m.Fork(seed).(*Model)} }

// refOutcomeKey is OutcomeKey as a strings.Builder rendered it before keys
// were appended into the search's buffer: the structure through
// plan.Node.String and the statistics through BucketSignature, whose bytes the
// stats package pins against a flat reference store.
func refOutcomeKey(s *State) string {
	var b strings.Builder
	for _, t := range s.Planned {
		b.WriteString(t.Tree.String())
		b.WriteByte(';')
	}
	b.WriteByte('|')
	for _, a := range s.Active {
		b.WriteString(a.Key())
		b.WriteByte(';')
	}
	b.WriteByte('|')
	b.WriteString(s.St.BucketSignature())
	return b.String()
}

// fmtSignature renders a store's signature with fmt from its entries, apart
// from the stats package's rendering: each statistic's line by "c:%q:%d",
// "m:%d:%q:%d" or "a:%d:%q:%q:%d" over its texts and the floor of log2(v+1)
// (-1 for v ≤ 0), sorted and comma-joined.
func fmtSignature(st *stats.Store) string {
	bucket := func(v float64) int {
		if v <= 0 {
			return -1
		}
		return int(math.Floor(math.Log2(v + 1)))
	}
	var lines []string
	for _, e := range st.Entries() {
		switch e.Kind {
		case 'c':
			lines = append(lines, fmt.Sprintf("c:%q:%d", e.Expr, bucket(e.Value)))
		case 'm':
			lines = append(lines, fmt.Sprintf("m:%d:%q:%d", e.Term, e.Expr, bucket(e.Value)))
		default:
			lines = append(lines, fmt.Sprintf("a:%d:%q:%q:%d", e.Term, e.Expr, e.Partner, bucket(e.Value)))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, ",")
}

// TestOutcomeKeyBytes: the key the search renders into its reused buffer is,
// byte for byte, the string OutcomeKey has always returned (it is also the
// plan-cache key), on every state the playout corpus reaches — the walks'
// starts and every state the stepped rollouts step into. Its statistics half
// is, byte for byte, the fmt rendering of the flattened store.
func TestOutcomeKeyBytes(t *testing.T) {
	buf := []byte("stale bytes from an earlier key")
	check := func(label string, s *State) {
		// Appended first: once BucketSignature remembers the signature,
		// appending copies it instead of rendering.
		buf = s.AppendOutcomeKey(buf[:0])
		want := refOutcomeKey(s)
		if string(buf) != want {
			t.Fatalf("%s: appended key\n%s\nwant\n%s", label, buf, want)
		}
		if got := s.OutcomeKey(); got != want {
			t.Fatalf("%s: OutcomeKey\n%s\nwant\n%s", label, got, want)
		}
		if got, want := s.St.BucketSignature(), fmtSignature(s.St); got != want {
			t.Fatalf("%s: BucketSignature\n%s\nwant the fmt rendering\n%s", label, got, want)
		}
	}
	states := 0
	for _, c := range playoutCorpus() {
		seed := int64(1)
		walker, _ := c.model(randx.Derive(seed, "walk"))
		stepper, _ := c.model(seed)
		for i, s := range c.starts(walker, randx.New(seed)) {
			label := fmt.Sprintf("%s start %d", c.label, i)
			check(label, s)
			states++
			stepRollout(stepper, s, randx.New(seed), 200, func(next *State) {
				check(label+" rollout", next)
				states++
			})
		}
	}
	t.Logf("%d states keyed", states)
}
