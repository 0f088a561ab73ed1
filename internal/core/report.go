package core

import (
	"time"

	"monsoon/internal/obs"
	"monsoon/internal/plan"
)

// reportEstimates emits one estimate-vs-actual record per executed node whose
// cardinality the engine observed, and feeds join q-errors into the metrics
// registry — the per-join q-error being the single most diagnostic signal for
// how well the prior's expectation matched the hidden world.
func reportEstimates(tr *obs.Tracer, reg *obs.Registry, n *plan.Node, ests, actuals map[string]float64, times map[string]time.Duration, round int) {
	key := n.Key()
	if est, okE := ests[key]; okE {
		if actual, okA := actuals[key]; okA {
			qe := obs.QError(est, actual)
			tr.Estimate(obs.Estimate{
				Expr: key, Join: !n.IsLeaf(), Round: round,
				Est: est, Actual: actual, QError: qe,
				Miss: obs.QErrorIsMiss(qe),
				Dur:  times[key],
			})
			if !n.IsLeaf() {
				// An empty-vs-nonempty miss is +Inf (and a threshold-scale one
				// is as good as infinite); count those separately instead of
				// letting them poison the histogram's sum, mean, and
				// quantiles — mirroring the harness's miss column.
				if obs.QErrorIsMiss(qe) {
					reg.Counter("monsoon.qerror.misses").Inc()
				} else {
					reg.Histogram("monsoon.qerror.join").Observe(qe)
				}
			}
		}
	}
	if !n.IsLeaf() {
		reportEstimates(tr, reg, n.Left, ests, actuals, times, round)
		reportEstimates(tr, reg, n.Right, ests, actuals, times, round)
	}
}
