// Command benchmark is the repository's performance benchmark: four workloads
// measured end to end against the real monsoond binary (or, for engine_scan,
// the engine library), every answer checked against pinned goldens, plus a
// separate traced pass that replays the same operation lists in-process and
// times each layer. BENCHMARK.json at the repository root declares the metrics;
// README.md in this directory says why each workload and metric exists.
//
// Run from the repository root:
//
//	bash benchmark/run.sh                                  every workload
//	bash benchmark/run.sh -workload serve_cold -seed 7     one workload
//	bash benchmark/run.sh -workload serve_cold -trace 1    its per-layer pass
//	bash benchmark/run.sh -quick                           CI smoke
//	bash benchmark/run.sh -aa                              A/A: suite twice, compare
//	bash benchmark/run.sh -update-golden                   re-pin the goldens
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const outDir = "benchmark/out"

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment is recorded with every result: numbers from two machines, or
// from two GOMAXPROCS, are not comparable.
type environment struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	RateRPS    float64 `json:"rate_rps"`
}

func currentEnvironment(seed int64, seconds float64) environment {
	commit := "unknown" // a source archive has no git directory
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: seed, Seconds: seconds, RateRPS: openRateRPS,
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "run one workload: serve_warm, serve_cold, serve_open, engine_scan (default: all, each in its own process)")
	seed := flag.Int64("seed", 1, "workload seed: list shuffles, cold request seeds, arrival schedule (the data seed is fixed)")
	window := flag.Float64("seconds", 0, "the harness passes BENCHMARK.json's run_seconds here; any other value is refused, the window is not a knob")
	trace := flag.Int("trace", 0, "1 = the traced in-process pass and its per-layer metrics instead of the end-to-end run")
	quick := flag.Bool("quick", false, "smoke run: one set-up and a one-second window per workload")
	aa := flag.Bool("aa", false, "run the suite twice and fail if an end-to-end metric differs by more than its bound")
	update := flag.Bool("update-golden", false, "re-record "+goldenPath+" from the code as it stands")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}

	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	// The window is frozen in BENCHMARK.json: pass counts, serve_open's
	// schedule and the list produced_objects sums all follow from it, so a run
	// with another window would report other quantities under the same names.
	if *window != 0 && *window != float64(spec.RunSeconds) {
		return fmt.Errorf("-seconds %g: the measured window is %s's run_seconds (%d) and cannot be set per run; -quick is the short smoke run",
			*window, specPath, spec.RunSeconds)
	}
	seconds := float64(spec.RunSeconds)
	if *quick {
		seconds = 1
	}
	stopChildrenOnSignal()

	switch {
	case *update:
		bin, err := buildDaemon()
		if err != nil {
			return err
		}
		return updateGoldens(bin)
	case *aa:
		return runAA(spec, *seed, *quick)
	case *workload == "":
		_, err := runSuite(*seed, *trace, *quick)
		return err
	}

	w, ok := findWorkload(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	gold, err := loadGoldens()
	if err != nil {
		return err
	}
	cfg := runConfig{spec: w, seed: *seed, seconds: seconds, quick: *quick, gold: gold}
	if w.bench != "" {
		if cfg.monsoond, err = buildDaemon(); err != nil {
			return err
		}
	}
	env := currentEnvironment(*seed, seconds)
	fmt.Printf("workload %s  seed %d  seconds %g  NumCPU %d  GOMAXPROCS %d  %s  commit %s  rate_rps %g\n",
		w.name, env.Seed, env.Seconds, env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit, env.RateRPS)

	var res result
	if *trace == 1 {
		res, err = runTraced(cfg, spec)
	} else {
		res, err = runEndToEnd(cfg, spec)
	}
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("result-%s-trace%d.json", w.name, *trace)),
		struct {
			Workload    string      `json:"workload"`
			Environment environment `json:"environment"`
			Result      result      `json:"result"`
		}{w.name, env, res}); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or answered wrong", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// runEndToEnd is the untraced run: the numbers a user of the system would see.
func runEndToEnd(cfg runConfig, spec *benchSpec) (result, error) {
	var w *window
	var setups []float64
	var err error
	if cfg.spec.bench == "" {
		w, setups, err = runScan(cfg)
	} else {
		w, setups, err = runServe(cfg)
	}
	if err != nil {
		return result{}, err
	}
	values := w.endToEnd(setups)
	metrics, err := report(spec.EndToEnd, values)
	if err != nil {
		return result{}, err
	}
	failed, reasons := w.failures()
	n := len(w.samples) - failed

	loop := fmt.Sprintf("closed loop, %d clients, %d passes", w.clients, len(w.passRates))
	if cfg.spec.open {
		loop = fmt.Sprintf("open loop, %g req/s over ≤%d connections", ratio(float64(len(w.samples)), cfg.seconds), w.clients)
	}
	fmt.Printf("  %s; %d operations, %d correct\n", loop, len(w.samples), n)
	for _, d := range spec.EndToEnd {
		note := ""
		switch d.Name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups: %.3f", len(setups), setups)
		case "ops_per_s":
			note = fmt.Sprintf("median of %d passes", len(w.passRates))
		case "lat_mid_ms":
			note = fmt.Sprintf("mean of the middle half, per group; median of %d groups, n=%d", len(w.groups), n)
		case "lat_tail_ms":
			note = fmt.Sprintf("mean of the slowest tenth, per group; median of %d groups, n=%d", len(w.groups), n)
		case "ok_ratio":
			note = fmt.Sprintf("fail_ratio %.6g: %d of %d non-200, refused or wrong answer", ratio(float64(failed), float64(len(w.samples))), failed, len(w.samples))
		}
		fmt.Printf("  %-18s %14.6g %-6s %s\n", d.Name, values[d.Name], d.Unit, note)
	}
	var lat []float64
	for _, g := range w.groups {
		lat = append(lat, g...)
	}
	fmt.Printf("  %-18s %14.6g %-6s p95 %.6g ms; n=%d supports percentiles up to p%.1f\n",
		"lat_p50_ms", percentile(lat, 50), "ms", percentile(lat, 95), n, supportedPercentile(n))
	if cfg.spec.open {
		late, maxLag := lateness(w.samples)
		fmt.Printf("  %-18s %14.6g %-6s max lag %.3g ms\n", "late_ratio", late, "", maxLag)
		if late > 0.01 {
			fmt.Printf("  INVALID: more than 1%% of requests left the generator over %v late; the open loop did not hold its schedule\n", lateAfter)
		}
	}
	for _, r := range reasons {
		fmt.Println("  FAILED", r)
	}
	return result{Correct: failed == 0, Attempted: len(w.samples), Failed: failed, Metrics: metrics}, nil
}

// runSuite runs every workload, each in a child process of its own so that no
// workload inherits another's heap, and returns their results by name.
func runSuite(seed int64, trace int, quick bool) (map[string]result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	results := make(map[string]result)
	var failed []string
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-trace", fmt.Sprint(trace)}
		if quick {
			args = append(args, "-quick")
		}
		var out bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s printed no result (%v)", w.name, runErr)
		}
		results[w.name] = res
		if runErr != nil || !res.Correct {
			failed = append(failed, w.name)
		}
	}
	if err := writeJSON(filepath.Join(outDir, "results.json"), results); err != nil {
		return nil, err
	}
	if len(failed) > 0 {
		return results, fmt.Errorf("workloads failed: %v", failed)
	}
	return results, nil
}

// runAA runs the suite twice on the same code and checks every end-to-end
// metric of every workload against its own bound: a benchmark whose A/A spread
// exceeds a bound cannot hold a change to that bound.
func runAA(spec *benchSpec, seed int64, quick bool) error {
	a, err := runSuite(seed, 0, quick)
	if err != nil {
		return err
	}
	b, err := runSuite(seed, 0, quick)
	if err != nil {
		return err
	}
	fmt.Printf("\nA/A spread, seed %d (|a-b| over their mean, against the metric's bound)\n", seed)
	var over []string
	for _, w := range workloads {
		for _, d := range spec.EndToEnd {
			x, y := a[w.name].Metrics[d.Name].Value, b[w.name].Metrics[d.Name].Value
			spread := ratio(math.Abs(x-y), (x+y)/2)
			verdict := "ok"
			if spread > d.Bound && !quick {
				verdict = "OVER"
				over = append(over, w.name+"/"+d.Name)
			}
			fmt.Printf("  %-12s %-18s %14.6g %14.6g  spread %6.2f%%  bound %5.1f%%  %s\n",
				w.name, d.Name, x, y, 100*spread, 100*d.Bound, verdict)
		}
	}
	if len(over) > 0 {
		sort.Strings(over)
		return fmt.Errorf("A/A spread over the bound: %v", over)
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
