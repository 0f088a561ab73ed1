package harness

import (
	"fmt"
	"io"
	"math"
	"sort"

	"monsoon/internal/cost"
	"monsoon/internal/engine"
	"monsoon/internal/opt"
	"monsoon/internal/randx"
	"monsoon/internal/stats"
)

// Estimates is an extension experiment in the spirit of Leis et al.'s "How
// Good Are Query Optimizers, Really?": for every IMDB query it executes the
// full-statistics plan, records the *true* cardinality of every intermediate
// node, re-estimates each under the statistics each option would have had at
// optimization time, and reports q-error quantiles (q = max(est/true,
// true/est)). It quantifies *why* the Table 3 options behave as they do:
// Defaults' constant rule and Sampling's block estimates degrade on the
// correlated data exactly as the paper's narrative expects.
func (r *Runner) Estimates(w io.Writer) error {
	sc := r.Scale
	r.log("Estimates: generating IMDB (titles %d, bootstrap %d)...", sc.IMDBTitles, sc.IMDBBootstrap)
	specs, err := Specs("imdb", sc)
	if err != nil {
		return err
	}

	type source struct {
		name string
		mk   func(spec QuerySpec, ex *engine.Exec) (*stats.Store, error)
	}
	sources := []source{
		{"Full stats", func(spec QuerySpec, _ *engine.Exec) (*stats.Store, error) {
			return opt.CollectFullStats(spec.Q, spec.Cat), nil
		}},
		{"On Demand", func(spec QuerySpec, ex *engine.Exec) (*stats.Store, error) {
			return opt.CollectOnDemand(spec.Q, ex, &engine.Budget{})
		}},
		{"Sampling", func(spec QuerySpec, ex *engine.Exec) (*stats.Store, error) {
			return opt.CollectSampling(spec.Q, ex, &engine.Budget{}, randx.New(randx.Derive(sc.Seed, "est-sampling")))
		}},
		{"Defaults", func(spec QuerySpec, _ *engine.Exec) (*stats.Store, error) {
			return baseStats(spec), nil
		}},
	}

	qerrs := map[string][]float64{}
	for _, spec := range specs {
		q := spec.Q
		fullSt := opt.CollectFullStats(q, spec.Cat)
		dv := &cost.Deriver{Q: q, St: fullSt.Clone(), Miss: cost.DefaultMiss(0.1)}
		tree, err := opt.BestPlan(q, dv)
		if err != nil {
			return err
		}
		_, er, err := engine.New(spec.Cat).NewExec(engine.ExecConfig{}).ExecTree(q, tree, &engine.Budget{MaxTuples: sc.MaxTuples})
		if err != nil {
			continue // a genuinely huge query: skip, we need truths
		}
		truths := er.Counts
		for _, src := range sources {
			st, err := src.mk(spec, engine.New(spec.Cat).NewExec(engine.ExecConfig{}))
			if err != nil {
				return err
			}
			ests := map[string]float64{}
			(&cost.Deriver{Q: q, St: st, Miss: cost.DefaultMiss(0.1)}).NodeCounts(tree, ests)
			for key, e := range ests {
				truth := truths[key]
				if truth <= 0 {
					continue
				}
				if e <= 0 {
					e = 1
				}
				qerrs[src.name] = append(qerrs[src.name], math.Max(e/truth, truth/e))
			}
		}
	}

	fmt.Fprintln(w, "Estimate quality: q-error of intermediate-cardinality estimates on IMDB")
	fmt.Fprintf(w, "%-12s %8s %8s %8s %8s %8s\n", "Source", "p50", "p75", "p90", "p95", "max")
	order := []string{"Full stats", "On Demand", "Sampling", "Defaults"}
	for _, name := range order {
		xs := qerrs[name]
		if len(xs) == 0 {
			continue
		}
		sort.Float64s(xs)
		fmt.Fprintf(w, "%-12s %8.2f %8.2f %8.2f %8.2f %8.1f\n", name,
			quantile(xs, 0.50), quantile(xs, 0.75), quantile(xs, 0.90),
			quantile(xs, 0.95), xs[len(xs)-1])
	}
	fmt.Fprintln(w, "\n(q-error = max(est/true, true/est) per executed plan node; Full stats")
	fmt.Fprintln(w, "errs only through correlations, the others add estimation error on top.)")
	return nil
}

func quantile(sorted []float64, p float64) float64 {
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
