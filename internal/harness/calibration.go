package harness

import (
	"fmt"
	"io"
	"sort"

	"monsoon/internal/cost"
	"monsoon/internal/obs"
	"monsoon/internal/plancache"
)

// CalibrationReplanThreshold is the q-error at which the calibration study's
// second pass forces a mid-query replan. Eight is one log₂ statistics bucket
// past "badly wrong": small enough to catch the worst TPC-H selective-scan
// underestimates and Q-max joins, large enough that routine prior error does
// not thrash the plan cache. (Misses — one side empty — always trigger,
// regardless of the threshold; see obs.QErrorMissThreshold.)
const CalibrationReplanThreshold = 8

// CalibrationStudy closes the q-error loop on the scale's TPC-H suite:
//
//	pass 1  uncalibrated Monsoon, recording every operator span;
//	fold    the spans into a per-operator-kind cost profile (seconds per
//	        object produced) and print the learned rate table;
//	pass 2  the same suite priced with that profile, replanning armed at
//	        CalibrationReplanThreshold, through a fresh shared plan cache so
//	        a triggered replan has memoized rounds to invalidate.
//
// Both passes run without a wall-clock deadline (the comparison must be
// machine-independent; the tuple budget still applies) and with identical
// per-query seeds, so every Q-max movement is attributable to the calibrated
// cost model and the replan trigger, never to clock noise. The per-query
// table is sorted worst-first by the uncalibrated pass's Q-max — the joins
// the study targets — and the verdict column reports improvements, ties, and
// regressions honestly rather than summarizing.
func (r *Runner) CalibrationStudy(w io.Writer) error {
	sc := r.Scale
	r.log("CalibrationStudy: generating TPC-H (sf %g)...", sc.TPCHSF)
	specs, err := Specs("tpch", sc)
	if err != nil {
		return err
	}
	sc.Timeout = 0 // both passes run without a deadline

	col := &obs.Collector{}
	ref := Monsoon{Iterations: sc.MCTSIterations, PlanParallelism: sc.PlanParallelism,
		Metrics: r.Metrics, Sink: obs.Multi(col, r.Sink)}
	r.log("CalibrationStudy: pass 1 (uncalibrated, recording spans)...")
	refBR, err := RunBenchmark(specs, []Option{ref}, sc, r.Progress)
	if err != nil {
		return err
	}

	cal := cost.NewCalibrator()
	cal.AddSpans(col.Spans)
	profile, err := cal.Profile()
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	fmt.Fprintln(w, "Calibration study: TPC-H suite, cost profile learned from pass 1's spans")
	fmt.Fprint(w, profile.Table())

	cache := plancache.New(0)
	calOpt := Monsoon{Iterations: sc.MCTSIterations, PlanParallelism: sc.PlanParallelism,
		Metrics: r.Metrics, Sink: r.Sink,
		Cache: cache, Profile: profile, ReplanThreshold: CalibrationReplanThreshold}
	r.log("CalibrationStudy: pass 2 (calibrated, replan threshold %g)...", float64(CalibrationReplanThreshold))
	calBR, err := RunBenchmark(specs, []Option{calOpt}, sc, r.Progress)
	if err != nil {
		return err
	}

	refRes := refBR.Results[ref.Name()]
	calRes := calBR.Results[calOpt.Name()]
	if len(refRes) != len(calRes) {
		return fmt.Errorf("calibration: %d reference queries vs %d calibrated", len(refRes), len(calRes))
	}
	order := make([]int, len(refRes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return refRes[order[a]].QErrMax > refRes[order[b]].QErrMax
	})

	fmt.Fprintf(w, "\n%-12s %-12s %-12s %-8s %-8s %-8s\n",
		"Query", "Qmax-uncal", "Qmax-cal", "Misses", "Replans", "Verdict")
	improved, tied, regressed, replans := 0, 0, 0, 0
	for _, i := range order {
		rq, cq := refRes[i], calRes[i]
		replans += cq.Replans
		verdict := "-"
		if rq.QErrJoins > 0 || cq.QErrJoins > 0 {
			switch {
			case cq.QErrMax < rq.QErrMax:
				improved++
				verdict = "improved"
			case cq.QErrMax == rq.QErrMax:
				tied++
				verdict = "tie"
			default:
				regressed++
				verdict = "regressed"
			}
		}
		fmt.Fprintf(w, "%-12s %-12.3g %-12.3g %-8s %-8d %-8s\n",
			rq.Query, rq.QErrMax, cq.QErrMax,
			fmt.Sprintf("%d/%d", rq.QErrMisses, cq.QErrMisses), cq.Replans, verdict)
	}
	fmt.Fprintf(w, "verdicts: %d improved, %d tied, %d regressed (Q-max per query, uncalibrated → calibrated)\n",
		improved, tied, regressed)
	cs := cache.Stats()
	fmt.Fprintf(w, "replans: %d triggered across the suite (threshold %g); cache: %d hits, %d misses, %d entries\n",
		replans, float64(CalibrationReplanThreshold), cs.Hits, cs.Misses, cs.Entries)
	return nil
}
