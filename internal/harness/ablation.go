package harness

import (
	"fmt"
	"io"
	"time"

	"monsoon/internal/cost"
	"monsoon/internal/engine"
	"monsoon/internal/mcts"
	"monsoon/internal/obs"
	"monsoon/internal/opt"
	"monsoon/internal/plan"
	"monsoon/internal/prior"
	"monsoon/internal/query"
	"monsoon/internal/randx"
)

// LEC is the least-expected-cost ablation: the same prior Monsoon uses, but
// one up-front plan with no statistics collection and no re-planning. §2.3
// argues this is the closest classical alternative — and why it falls short.
type LEC struct{}

// Name implements Option.
func (LEC) Name() string { return "LEC" }

// Run implements Option.
func (l LEC) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, seed int64, sink obs.EventSink) Outcome {
	return runPlanned(l.Plan, spec, timeout, maxTuples, seed, sink)
}

// Plan implements Planner. EXPLAIN prices the plan at the prior's
// expectation.
func (LEC) Plan(spec QuerySpec, ex *engine.Exec, _ *engine.Budget, seed int64) (*plan.Node, *cost.Deriver, error) {
	p, st := prior.Default(), baseStats(spec)
	tree, err := opt.LECPlan(spec.Q, st, p, randx.New(randx.Derive(seed, "lec")))
	mean := func(_ *query.Term, _, _ query.AliasSet, cExpr, cPartner float64) float64 {
		return p.Mean(cExpr, cPartner)
	}
	return tree, &cost.Deriver{Q: spec.Q, St: st, Miss: mean, Obs: ex.Obs}, err
}

// Ablation runs the design-choice study DESIGN.md calls out, on the UDF
// benchmark (the workload where obscured statistics matter most):
//
//   - Monsoon (UCT, greedy rollouts)   — the shipped configuration
//   - Monsoon ε-greedy                 — §5.1's alternative selection rule
//   - Monsoon uniform rollouts         — without the greedy default policy
//   - LEC                              — one-shot least-expected-cost (§2.3)
//   - Defaults                         — no prior at all
func (r *Runner) Ablation(w io.Writer) error {
	sc := r.Scale
	r.log("Ablation: generating UDF suite (titles %d, SF %.4g)...", sc.UDFTitles, sc.UDFSF)
	specs, err := Specs("udf", sc)
	if err != nil {
		return err
	}
	uct, eps, uni := r.monsoon(), r.monsoon(), r.monsoon()
	uct.Label = "Monsoon (UCT+greedy)"
	eps.Label, eps.Strategy = "Monsoon (ε-greedy)", mcts.EpsGreedy
	uni.Label, uni.UniformRollout = "Monsoon (uniform rollout)", true
	options := []Option{uct, eps, uni, LEC{}, Defaults{}}
	br, err := RunBenchmark(specs, options, sc, r.Progress)
	if err != nil {
		return err
	}
	names := make([]string, len(options))
	for i, o := range options {
		names[i] = o.Name()
	}
	printAggTable(w, "Ablation: Monsoon design choices on the UDF benchmark", names, br, nil)
	fmt.Fprintln(w, "\nReading guide: ε-greedy should track UCT closely (§5.1 tried both);")
	fmt.Fprintln(w, "uniform rollouts blunt the value-of-information signal; LEC commits")
	fmt.Fprintln(w, "up-front and inherits Defaults-like tail risk despite the prior.")
	return nil
}
