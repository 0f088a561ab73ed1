package main

import (
	"fmt"
	"runtime"
	"time"
)

// runConfig is one workload run.
type runConfig struct {
	spec    workloadSpec
	seed    int64
	seconds float64
	// quick is the smoke run: one set-up, a one-second window, no fixed list.
	quick    bool
	monsoond string
	gold     *goldens
}

// setups is how many times the run sets up from scratch.
func (c runConfig) setups() int {
	if c.quick {
		return 1
	}
	return setupReps
}

// window is what a measured window observed.
type window struct {
	samples []sample
	// passRates holds, per pass, correct operations per second of wall-clock.
	passRates []float64
	// produced sums the answers' produced objects over the workload's fixed
	// request list.
	produced float64
	// clients is the closed-loop client count, or the open loop's connection
	// cap.
	clients int
	// groups holds the correct operations' latencies in ms, one slice per
	// pass (closed loop) or per block of the schedule (open loop). The latency
	// metrics are taken per group and reported as the median over groups, so
	// a few seconds of interference from outside the benchmark, which lands in
	// a few groups, does not move them.
	groups [][]float64
}

// add folds one pass into the window. group is the number of consecutive
// operations that form one latency group; 0 means the whole pass.
func (w *window) add(samples []sample, wall time.Duration, countProduced bool, group int) {
	ok := 0
	for _, s := range samples {
		if s.Fail == "" {
			ok++
		}
		if countProduced {
			w.produced += s.Produced
		}
	}
	w.samples = append(w.samples, samples...)
	w.passRates = append(w.passRates, float64(ok)/wall.Seconds())
	if group <= 0 {
		group = len(samples)
	}
	for from := 0; from < len(samples); from += group {
		var lat []float64
		for _, s := range samples[from:min(from+group, len(samples))] {
			if s.Fail == "" {
				lat = append(lat, float64(s.Latency)/float64(time.Millisecond))
			}
		}
		if len(lat) > 0 {
			w.groups = append(w.groups, lat)
		}
	}
}

// failures counts failed operations and keeps the first few reasons.
func (w *window) failures() (int, []string) {
	n := 0
	var first []string
	for _, s := range w.samples {
		if s.Fail != "" {
			n++
			if len(first) < 5 {
				first = append(first, fmt.Sprintf("%s: %s", s.op.Query, s.Fail))
			}
		}
	}
	return n, first
}

// endToEnd renders the window as the end-to-end metrics.
func (w *window) endToEnd(setups []float64) map[string]float64 {
	var mid, tail []float64
	for _, lat := range w.groups {
		mid = append(mid, bandMean(lat, 0.25, 0.75))
		tail = append(tail, bandMean(lat, 0.9, 1))
	}
	failed, _ := w.failures()
	return map[string]float64{
		// The issue's fail_ratio, turned round: a bounded metric is compared
		// as a share of its parent's value, which 0 does not allow.
		"ok_ratio":         ratio(float64(len(w.samples)-failed), float64(len(w.samples))),
		"setup_s":          median(setups),
		"ops_per_s":        median(w.passRates),
		"lat_mid_ms":       median(mid),
		"lat_tail_ms":      median(tail),
		"produced_objects": w.produced,
	}
}

// measureClosed runs closed-loop passes until the window has elapsed; the pass
// in flight when it does is completed, so every pass covers the whole list.
func measureClosed(cfg runConfig, names []string, clients int, do doFunc) *window {
	w := &window{clients: clients}
	limit := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	// produced_objects sums a fixed request list, whatever the machine's
	// speed made of the window: serve_cold's first producedPasses passes (a
	// slow window is extended until they are done); a warm or engine pass
	// answers the same every time, so one pass is its list.
	listPasses := 1
	if cfg.spec.cold && !cfg.quick {
		listPasses = producedPasses
	}
	for pass := 0; pass < listPasses || time.Since(start) < limit; pass++ {
		samples, wall := closedLoop(closedPass(cfg.spec, names, cfg.seed, pass), clients, do)
		w.add(samples, wall, pass < listPasses, 0)
	}
	return w
}

// warmUp sends one discarded pass: each query once at the daemon's default
// seed (which fills the plan cache for the warm workloads), or with a seed of
// its own for the cold workload. A failure here fails the set-up.
func warmUp(cfg runConfig, names []string, clients int, do doFunc) error {
	spec := cfg.spec
	spec.copies = 1
	samples, _ := closedLoop(closedPass(spec, names, cfg.seed, -1), clients, do)
	for _, s := range samples {
		if s.Fail != "" {
			return fmt.Errorf("warm-up %s: %s", s.op.Query, s.Fail)
		}
	}
	return nil
}

// daemonDo sends operations to d and checks each reply against the goldens.
func daemonDo(d *daemonProc, want map[string]goldenAnswer) doFunc {
	return func(o op) answer {
		r := d.query(o)
		return answer{Fail: checkReply(want, o, r), Produced: r.body.Produced, ServerMS: r.body.ElapsedMS}
	}
}

// setUpDaemon is one complete set-up of a serve workload: boot monsoond to
// /healthz, list its queries, send the warm-up pass.
func setUpDaemon(cfg runConfig, clients int) (*daemonProc, []string, error) {
	d, err := startDaemon(cfg.monsoond, cfg.spec.bench)
	if err != nil {
		return nil, nil, err
	}
	names, err := d.names()
	if err == nil {
		err = warmUp(cfg, names, clients, daemonDo(d, cfg.gold.Serve[cfg.spec.bench]))
	}
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	return d, names, nil
}

// runServe measures a serve workload against the real daemon. setup_s is
// everything before the first measured request, taken as the median of
// cfg.setups() complete set-ups; the last one serves the window.
func runServe(cfg runConfig) (*window, []float64, error) {
	clients := closedClients(runtime.NumCPU())
	var setups []float64
	var d *daemonProc
	var names []string
	defer func() { d.stop() }()
	for i := 0; i < cfg.setups(); i++ {
		d.stop()
		t0 := time.Now()
		var err error
		if d, names, err = setUpDaemon(cfg, clients); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	do := daemonDo(d, cfg.gold.Serve[cfg.spec.bench])
	if !cfg.spec.open {
		return measureClosed(cfg, names, clients, do), setups, nil
	}
	ops, err := openSchedule(names, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, nil, err
	}
	w := &window{clients: openConns}
	samples, wall := openLoop(ops, openConns, do)
	w.add(samples, wall, true, len(names))
	return w, setups, nil
}

// runScan measures engine_scan: no daemon and no planner in the window, one
// caller, each operation one ExecTree over plans fixed during set-up.
func runScan(cfg runConfig) (*window, []float64, error) {
	var setups []float64
	var set *scanSet
	var do doFunc
	for i := 0; i < cfg.setups(); i++ {
		set = nil
		runtime.GC() // the previous set-up's tables must not crowd this one's
		t0 := time.Now()
		var err error
		if set, err = newScanSet(); err != nil {
			return nil, nil, err
		}
		do = scanDo(set, cfg.gold.Scan)
		if err := warmUp(cfg, set.names(), 1, do); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return measureClosed(cfg, set.names(), 1, do), setups, nil
}

// scanDo executes trees of set and checks each answer against the goldens.
func scanDo(set *scanSet, want map[string]goldenAnswer) doFunc {
	return func(o op) answer {
		t, ok := set.byName(o.Query)
		if !ok {
			return answer{Fail: "unknown tree"}
		}
		got, d, err := set.exec(t)
		return answer{Fail: checkScan(want, t.name, got, err), Produced: got.Produced,
			ServerMS: float64(d) / float64(time.Millisecond)}
	}
}

// lateness summarises how far behind its schedule the open-loop generator ran.
func lateness(samples []sample) (lateRatio, maxLagMS float64) {
	late := 0
	var maxLag time.Duration
	for _, s := range samples {
		if s.Lag > lateAfter {
			late++
		}
		if s.Lag > maxLag {
			maxLag = s.Lag
		}
	}
	return ratio(float64(late), float64(len(samples))), float64(maxLag) / float64(time.Millisecond)
}
