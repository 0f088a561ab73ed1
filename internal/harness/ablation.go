package harness

import (
	"fmt"
	"io"
	"time"

	"monsoon/internal/engine"
	"monsoon/internal/mcts"
	"monsoon/internal/opt"
	"monsoon/internal/prior"
	"monsoon/internal/randx"
)

// LEC is the least-expected-cost ablation: the same prior Monsoon uses, but
// one up-front plan with no statistics collection and no re-planning. §2.3
// argues this is the closest classical alternative — and why it falls short.
type LEC struct {
	Prior  prior.Prior
	Worlds int
}

// Name implements Option.
func (LEC) Name() string { return "LEC" }

// Run implements Option.
func (l LEC) Run(spec QuerySpec, timeout time.Duration, maxTuples float64, seed int64) Outcome {
	p := l.Prior
	if p == nil {
		p = prior.Default()
	}
	worlds := l.Worlds
	if worlds == 0 {
		worlds = 32
	}
	start := time.Now()
	b := newBudget(timeout, maxTuples)
	tree, err := opt.LECPlan(spec.Q, baseStats(spec), p, worlds, randx.New(randx.Derive(seed, "lec")))
	if err != nil {
		return finish(start, b, err, Outcome{})
	}
	return execPlan(spec, engine.New(spec.Cat).NewExec(engine.ExecConfig{}), tree, start, b)
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
