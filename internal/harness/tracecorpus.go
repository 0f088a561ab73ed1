package harness

import (
	"fmt"
	"io"
)

// TraceCorpus runs the span-count reference workload: the scale's TPC-H
// suite through Monsoon alone, with no wall-clock deadline (a slow machine
// must not change how far a query gets), the campaign's tuple budget, and
// the campaign seed for every query — so the span stream on r.Config.Sink, and
// with it every per-kind count, is deterministic across hosts (worker
// fan-out excepted; trace tooling excludes that kind). This is the workload
// behind testdata/span_counts_small.jsonl: CI records it with
// `monsoon-bench -scale small -exp tracecorpus -trace-json` and diffs the
// recording against the pinned baseline with `monsoon-trace diff`, and
// TestSpanCountBaseline replays it in-process through the same
// tracefile.Diff logic.
func (r *Runner) TraceCorpus(w io.Writer) error {
	sc := r.Scale
	specs, err := Specs("tpch", sc)
	if err != nil {
		return err
	}
	opt := r.monsoon()
	for _, spec := range specs {
		out := opt.Run(spec, 0, sc.MaxTuples, sc.Seed, nil)
		if out.Err != nil {
			return fmt.Errorf("%s: %w", spec.Q.Name, out.Err)
		}
		if out.TimedOut {
			return fmt.Errorf("%s: tuple budget tripped; the corpus workload must complete", spec.Q.Name)
		}
	}
	fmt.Fprintf(w, "trace corpus: %d TPC-H queries through Monsoon (no deadline, budget %g, seed %d)\n",
		len(specs), sc.MaxTuples, sc.Seed)
	return nil
}
