package main

import (
	"fmt"
	"math"
	"time"

	"monsoon/internal/randx"
)

// Fixed parameters of the benchmark. None is tuned per commit: a change to
// any of them is a change to the benchmark, and the baseline is measured again.
const (
	// dataSeed seeds every generated table. It never follows -seed, so the
	// goldens hold for every workload seed; -seed moves only list shuffles,
	// cold request seeds and the arrival schedule.
	dataSeed = 1
	// scanSF is engine_scan's TPC-H scale factor: 10× the "small" scale the
	// daemon serves, ≈135 MB of live rows against 4 MiB of L2. It is the size
	// at which a pass of the twelve trees takes ≈1.3 s, so a 17 s window
	// still holds the eight passes a median needs.
	scanSF = 0.04
	// openRateRPS is serve_open's fixed arrival rate, about half of what the
	// daemon sustains on this request mix with two CPUs.
	openRateRPS = 12.0
	// openColdQuery is the request serve_open sends cold, one in every block:
	// nine tenths of its cold latency is planning, and it is short enough that
	// the daemon stays under half busy at openRateRPS.
	openColdQuery = "tpch-q10"
	// openConns caps serve_open's connections at the daemon's default
	// admission limit, so a full generator shows as lag, not as 429s.
	openConns = 8
	// lateAfter is how far past its due time a request may leave the
	// generator before it counts as late.
	lateAfter = 10 * time.Millisecond
	// setupReps is how many times a run sets up from scratch; setup_s is the
	// median, the last set-up serves the measured window.
	setupReps = 3
	// producedPasses is how many passes of serve_cold feed produced_objects:
	// 200 requests, each planned under a seed of its own, so that one unlucky
	// plan moves the sum by a percent or two and not by ten.
	producedPasses = 8
)

// workloadSpec is one traffic mix.
type workloadSpec struct {
	name string
	// bench is the benchmark monsoond serves (-bench); empty for the
	// engine-only workload.
	bench string
	// copies is how many shuffled copies of the query list one closed-loop
	// pass sends: enough that a pass lasts about a second.
	copies int
	// cold gives every request its own seed. The seed is part of the
	// plan-cache key, so every such request misses and runs MCTS in full.
	cold bool
	// open schedules arrivals instead of waiting for replies.
	open bool
}

var workloads = []workloadSpec{
	{name: "serve_warm", bench: "tpch", copies: 5},
	{name: "serve_cold", bench: "udf", copies: 1, cold: true},
	{name: "serve_open", bench: "tpch", open: true},
	{name: "engine_scan", copies: 1},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// closedClients is the closed-loop client count. It never exceeds NumCPU:
// more clients than processors would measure the scheduler's queue, not the
// daemon.
func closedClients(numCPU int) int {
	if numCPU < 2 {
		return 1
	}
	return 2
}

// op is one operation of a workload's list.
type op struct {
	// Query names a daemon query, or an engine_scan tree.
	Query string
	// Seed, when Cold, is sent as the request seed.
	Seed int64
	Cold bool
	// Due is the arrival time as an offset from the window start (open loop).
	Due time.Duration
}

// coldSeed is the request seed of the i-th query of pass p. It depends on the
// query's position in the unshuffled list, not on the shuffle, so a pass's
// produced-object total is a function of (seed, pass) alone.
func coldSeed(seed int64, pass, i int) int64 {
	return randx.Derive(seed, fmt.Sprintf("cold/%d/%d", pass, i))
}

// closedPass builds the operation list of one closed-loop pass: spec.copies
// copies of names, shuffled together.
func closedPass(spec workloadSpec, names []string, seed int64, pass int) []op {
	ops := make([]op, 0, spec.copies*len(names))
	for c := 0; c < spec.copies; c++ {
		for i, n := range names {
			o := op{Query: n}
			if spec.cold {
				o.Cold = true
				o.Seed = coldSeed(seed, pass, c*len(names)+i)
			}
			ops = append(ops, o)
		}
	}
	rng := randx.New(randx.Derive(seed, fmt.Sprintf("shuffle/%d", pass)))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// openCount is the number of arrivals in a window: rate × seconds, rounded to
// whole blocks so every seed sends the same mix.
func openCount(seconds float64, block int) int {
	n := int(math.Round(openRateRPS*seconds/float64(block))) * block
	if n < block {
		n = block
	}
	return n
}

// openSchedule builds serve_open's operation list in blocks that each hold
// every named query once and last len(names)/rate seconds: first openColdQuery
// with a seed of its own, then the others warm, rotated by one place per block
// so that every query follows the cold request at every distance. Each request
// is due at a uniformly random point of its own 1/rate slot.
//
// Poisson arrivals with cold requests at random would be the textbook open
// loop, but over so short a window the seed then decides how hard the run is: a
// cold request holds both processors for a few hundred milliseconds, and how
// many requests happen to arrive behind it, or whether two cold ones overlap,
// moved the tail latency by a factor of two between seeds. Here the offered
// load of every stretch of the window is the same for every seed, and every
// block is the same experiment, so the median over blocks is a steady number;
// the seed still moves each arrival within its slot and picks the cold seeds.
func openSchedule(names []string, seed int64, seconds float64) ([]op, error) {
	var warm []string
	for _, n := range names {
		if n != openColdQuery {
			warm = append(warm, n)
		}
	}
	if len(warm) != len(names)-1 {
		return nil, fmt.Errorf("the daemon does not serve %s, serve_open's cold query", openColdQuery)
	}
	n := openCount(seconds, len(names))
	slot := seconds / float64(n)
	rng := randx.New(randx.Derive(seed, "arrivals"))
	ops := make([]op, 0, n)
	for b := 0; len(ops) < n; b++ {
		ops = append(ops, op{Query: openColdQuery, Cold: true, Seed: coldSeed(seed, b, 0)})
		for i := range warm {
			ops = append(ops, op{Query: warm[(i+b)%len(warm)]})
		}
	}
	for i := range ops {
		ops[i].Due = time.Duration((float64(i) + rng.Float64()) * slot * float64(time.Second))
	}
	return ops, nil
}
