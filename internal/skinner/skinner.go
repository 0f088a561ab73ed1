// Package skinner is the SkinnerDB-G comparison option (§6.2.2 option 5): a
// regret-bounded online join-order learner in the style of Trummer et al.,
// run — as the paper did — on top of a batch engine that does not support
// incremental processing. Each episode picks a left-deep join order with UCT
// over order prefixes, executes it against the engine under a tuple budget,
// and discards all partial work on failure; budgets grow geometrically. This
// reproduces the pathology §6.4 discusses: without an incremental engine,
// work is thrown away between episodes and hard queries time out.
package skinner

import (
	"errors"
	"math"
	"time"

	"monsoon/internal/engine"
	"monsoon/internal/plan"
	"monsoon/internal/query"
	"monsoon/internal/randx"
)

// Config parameterizes a Skinner-G run.
type Config struct {
	// Seed makes the run reproducible.
	Seed int64
	// InitialBudget is the first episode's tuple budget; default 1000.
	InitialBudget float64
	// Growth multiplies the episode budget after every EpisodesPerBudget
	// failures; default 2.
	Growth float64
	// EpisodesPerBudget is how many episodes run at each budget level;
	// default 3.
	EpisodesPerBudget int
	// UCTWeight is the exploration weight; default √2.
	UCTWeight float64
}

func (c Config) withDefaults() Config {
	if c.InitialBudget == 0 {
		c.InitialBudget = 1000
	}
	if c.Growth == 0 {
		c.Growth = 2
	}
	if c.EpisodesPerBudget == 0 {
		c.EpisodesPerBudget = 3
	}
	if c.UCTWeight == 0 {
		c.UCTWeight = math.Sqrt2
	}
	return c
}

// Result reports a Skinner-G run.
type Result struct {
	// Value and Rows describe the final result when the run finished.
	Value float64
	Rows  int
	// Episodes counts executed episodes, Produced the total tuples paid
	// across all of them (including discarded work).
	Episodes int
	Produced float64
	// ExecTime is total engine time.
	ExecTime time.Duration
}

// uctNode is one join-order prefix.
type uctNode struct {
	visits   int
	children map[string]*uctStats
}

type uctStats struct {
	visits int
	total  float64
}

// Run learns a join order online and executes q. The overall budget bounds
// the whole run (its deadline and tuple cap include discarded episode work).
func Run(q *query.Query, ex *engine.Exec, budget *engine.Budget, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	rng := randx.New(randx.Derive(cfg.Seed, "skinner"))
	res := &Result{}
	prefixes := map[string]*uctNode{}
	epBudget := cfg.InitialBudget
	failures := 0

	for {
		if budget != nil && !budget.Deadline.IsZero() && time.Now().After(budget.Deadline) {
			return res, engine.ErrBudget
		}
		order := chooseOrder(q, prefixes, cfg.UCTWeight, rng)
		tree := leftDeep(order)
		// The episode budget shares the run's deadline and counts toward its
		// global tuple cap through res.Produced accounting below.
		eb := &engine.Budget{MaxTuples: epBudget}
		if budget != nil {
			eb.Deadline = budget.Deadline
			if budget.MaxTuples > 0 {
				remaining := budget.MaxTuples - budget.Produced()
				if remaining <= 0 {
					return res, engine.ErrBudget
				}
				if remaining < epBudget {
					eb.MaxTuples = remaining
				}
			}
		}
		t0 := time.Now()
		rel, er, err := ex.ExecTree(q, tree, eb)
		res.ExecTime += time.Since(t0)
		res.Episodes++
		res.Produced += er.Produced
		if budget != nil {
			if berr := budget.Charge(int(er.Produced)); berr != nil {
				return res, berr
			}
		}
		progress := float64(len(er.Counts)) / float64(2*len(order)-1)
		updateOrder(prefixes, order, progress)
		if err == nil {
			v, aerr := engine.FinalAggregate(q, rel)
			if aerr != nil {
				return res, aerr
			}
			res.Value = v
			res.Rows = rel.Count()
			return res, nil
		}
		if !errors.Is(err, engine.ErrBudget) {
			return res, err
		}
		failures++
		if failures%cfg.EpisodesPerBudget == 0 {
			epBudget *= cfg.Growth
		}
	}
}

// chooseOrder walks the prefix statistics with UCB1, extending unexplored
// prefixes randomly; cross-product extensions are admitted only when no
// connected table remains.
func chooseOrder(q *query.Query, prefixes map[string]*uctNode, w float64, rng interface{ Intn(int) int }) []string {
	all := q.Aliases().Names()
	var order []string
	cover := query.NewAliasSet()
	remaining := append([]string(nil), all...)
	for len(remaining) > 0 {
		// Candidate next tables.
		var cands []string
		if len(order) > 0 {
			for _, a := range remaining {
				if q.Connected(cover, query.NewAliasSet(a)) {
					cands = append(cands, a)
				}
			}
		}
		if len(cands) == 0 {
			cands = remaining
		}
		key := cover.Key()
		node := prefixes[key]
		if node == nil {
			node = &uctNode{children: map[string]*uctStats{}}
			prefixes[key] = node
		}
		pick := ""
		bestVal := math.Inf(-1)
		for _, c := range cands {
			st := node.children[c]
			if st == nil || st.visits == 0 {
				// Unexplored: pick among unexplored uniformly.
				var fresh []string
				for _, c2 := range cands {
					if s2 := node.children[c2]; s2 == nil || s2.visits == 0 {
						fresh = append(fresh, c2)
					}
				}
				pick = fresh[rng.Intn(len(fresh))]
				break
			}
			v := st.total/float64(st.visits) + w*math.Sqrt(math.Log(float64(node.visits)+1)/float64(st.visits))
			if v > bestVal {
				bestVal = v
				pick = c
			}
		}
		order = append(order, pick)
		cover = cover.Union(query.NewAliasSet(pick))
		for i, a := range remaining {
			if a == pick {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
	}
	return order
}

// updateOrder backpropagates an episode's progress reward into every prefix
// of the played order.
func updateOrder(prefixes map[string]*uctNode, order []string, reward float64) {
	cover := query.NewAliasSet()
	for _, a := range order {
		node := prefixes[cover.Key()]
		if node == nil {
			node = &uctNode{children: map[string]*uctStats{}}
			prefixes[cover.Key()] = node
		}
		st := node.children[a]
		if st == nil {
			st = &uctStats{}
			node.children[a] = st
		}
		node.visits++
		st.visits++
		st.total += reward
		cover = cover.Union(query.NewAliasSet(a))
	}
}

func leftDeep(order []string) *plan.Node {
	sets := make([]query.AliasSet, len(order))
	for i, a := range order {
		sets[i] = query.NewAliasSet(a)
	}
	return plan.LeftDeep(sets)
}
