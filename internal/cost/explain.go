package cost

import (
	"fmt"
	"strings"
	"time"

	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
)

// Explain renders a plan tree, EXPLAIN-style: one node per line, indented by
// depth, with the predicates applied at each join, the deriver's cardinality
// estimate, and — when an actuals map from an engine run is supplied — the
// observed count and the q-error of the estimate.
//
//	⋈ [R+S+T] preds{F3(R.b)=id(T.k)} est=1e+06 actual=964412 q=1.04
//	  ⋈ [R+S] preds{F1(R.a)=id(S.k)} est=1e+07 actual=1.2e+07 q=1.20
//	    scan R est=1e+06
//	    scan S est=10000
//	  scan T est=10000
func Explain(dv *Deriver, tree *plan.Node, actuals map[string]float64) string {
	var b strings.Builder
	explainNode(&b, dv, tree, actuals, 0, true)
	return b.String()
}

// nodeLabel renders the operator part of one explain line: the Σ marker (root
// only), the scan/reuse/join shape, and the predicates newly applied there.
func nodeLabel(q *query.Query, n *plan.Node, root bool) string {
	var b strings.Builder
	if root && n.Sigma {
		b.WriteString("Σ ")
	}
	if n.IsLeaf() {
		if n.Leaf.Size() == 1 {
			b.WriteString("scan " + n.Leaf.Names()[0])
		} else {
			b.WriteString("reuse [" + n.Key() + "]")
		}
		return b.String()
	}
	b.WriteString("⋈ [" + n.Key() + "]")
	var preds []string
	for _, p := range q.PredsNewAt(n.Left.Aliases(), n.Right.Aliases()) {
		preds = append(preds, p.String())
	}
	for _, s := range q.SelsNewAt(n.Left.Aliases(), n.Right.Aliases()) {
		preds = append(preds, s.String())
	}
	if len(preds) == 0 {
		b.WriteString(" cross-product")
	} else {
		b.WriteString(" preds{" + strings.Join(preds, ", ") + "}")
	}
	return b.String()
}

func explainNode(b *strings.Builder, dv *Deriver, n *plan.Node, actuals map[string]float64, depth int, root bool) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(nodeLabel(dv.Q, n, root))
	est := dv.NodeCount(n)
	fmt.Fprintf(b, " est=%.4g", est)
	if actual, ok := actuals[n.Key()]; ok {
		q := 1.0
		if actual > 0 && est > 0 {
			q = est / actual
			if q < 1 {
				q = 1 / q
			}
		}
		fmt.Fprintf(b, " actual=%.4g q=%.2f", actual, q)
	}
	b.WriteByte('\n')
	if !n.IsLeaf() {
		explainNode(b, dv, n.Left, actuals, depth+1, false)
		explainNode(b, dv, n.Right, actuals, depth+1, false)
	}
}

// ExplainAnalyze renders an executed plan tree with the optimizer's estimated
// cardinality, the observed cardinality, the per-node q-error, and — when the
// engine reported per-node timings — the inclusive wall time of each operator.
// When a self-time map is supplied too (derived from the run's span tree via
// obs.OperatorTimes), each node also shows the time spent in the operator
// itself, net of its children. A join line also says how the engine ran its
// predicates: key_terms, the predicates that separate the children — the
// first keys the hash table, the others filter its chains — which is absent
// on a nested loop, and residuals, the predicates evaluated on joined rows
// (every key predicate but the first among them):
//
//	⋈ [R+S+T] preds{F3(R.b)=id(T.k)} key_terms=1 residuals=0 est=1e+06 actual=964412 q=1.04 time=12.3ms self=2.5ms
//	  ⋈ [R+S] preds{F1(R.a)=id(S.k)} key_terms=1 residuals=0 est=1e+07 actual=1.2e+07 q=1.20 time=9.8ms self=7.6ms
//	    scan R est=1e+06 actual=1e+06 q=1.00 time=1.1ms self=1.1ms
//
// Unlike Explain it does not need a Deriver: estimates and actuals both come
// as maps keyed by plan.Node.Key, so callers can render from recorded trace
// events long after the run (the CLI's --explain analyze path does exactly
// that). Nodes missing from a map render "?" for that column; a nil selfs map
// omits the self column entirely.
func ExplainAnalyze(q *query.Query, tree *plan.Node, ests, actuals map[string]float64, times, selfs map[string]time.Duration) string {
	var b strings.Builder
	analyzeNode(&b, q, tree, ests, actuals, times, selfs, 0, true)
	return b.String()
}

// joinShape counts the key predicates of a join (plan.Node.LeadKey, the rule
// the engine keys its hash table by) and its residuals: every new predicate
// and selection but the first key predicate. They are the key_terms and
// residuals attributes of the engine's hash-build span.
func joinShape(q *query.Query, n *plan.Node) (keyTerms, residuals int) {
	xs, ys := n.Left.Aliases(), n.Right.Aliases()
	_, keyTerms = n.LeadKey(q)
	return keyTerms, len(q.PredsNewAt(xs, ys)) + len(q.SelsNewAt(xs, ys)) - min(keyTerms, 1)
}

func analyzeNode(b *strings.Builder, q *query.Query, n *plan.Node, ests, actuals map[string]float64, times, selfs map[string]time.Duration, depth int, root bool) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(nodeLabel(q, n, root))
	if !n.IsLeaf() {
		keyTerms, residuals := joinShape(q, n)
		if keyTerms > 0 {
			fmt.Fprintf(b, " key_terms=%d", keyTerms)
		}
		fmt.Fprintf(b, " residuals=%d", residuals)
	}
	key := n.Key()
	est, haveEst := ests[key]
	actual, haveActual := actuals[key]
	if haveEst {
		fmt.Fprintf(b, " est=%.4g", est)
	} else {
		b.WriteString(" est=?")
	}
	if haveActual {
		fmt.Fprintf(b, " actual=%.4g", actual)
	} else {
		b.WriteString(" actual=?")
	}
	if haveEst && haveActual {
		if qe := obs.QError(est, actual); qe > 1e6 {
			fmt.Fprintf(b, " q=%.3g", qe)
		} else {
			fmt.Fprintf(b, " q=%.2f", qe)
		}
	}
	if d, ok := times[key]; ok {
		fmt.Fprintf(b, " time=%s", d.Round(time.Microsecond))
	}
	if d, ok := selfs[key]; ok {
		fmt.Fprintf(b, " self=%s", d.Round(time.Microsecond))
	}
	b.WriteByte('\n')
	if !n.IsLeaf() {
		analyzeNode(b, q, n.Left, ests, actuals, times, selfs, depth+1, false)
		analyzeNode(b, q, n.Right, ests, actuals, times, selfs, depth+1, false)
	}
}
