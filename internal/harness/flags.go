package harness

import (
	"flag"
	"fmt"
	"os"

	"monsoon/internal/core"
	"monsoon/internal/cost"
	"monsoon/internal/obs"
	"monsoon/internal/obs/obshttp"
	"monsoon/internal/plancache"
)

// FlagGroup selects the shared flags BindFlags registers beyond -scale and
// -seed, which every binary takes.
type FlagGroup uint

const (
	// EngineFlags: -shards.
	EngineFlags FlagGroup = 1 << iota
	// CostFlags: -calibration-file -replan-threshold.
	CostFlags
	// TelemetryFlags: -plan-cache -metrics -obs-addr -trace-json.
	TelemetryFlags
)

// Flags are the flags the binaries share, bound once by BindFlags. After the
// flag set is parsed, Scale resolves them into a campaign Scale and Config
// into the core.Config every Monsoon run starts from. A flag of a group not
// bound keeps its zero value.
type Flags struct {
	scale              string
	seed               int64
	shards             int
	calibrationFile    string
	replanThreshold    float64
	planCache, metrics bool
	obsAddr, traceJSON string

	telemetryAddr string
}

// BindFlags registers -scale (defaulting to defaultScale), -seed and the
// flags of groups on fs.
func BindFlags(fs *flag.FlagSet, defaultScale string, groups FlagGroup) *Flags {
	f := &Flags{}
	fs.StringVar(&f.scale, "scale", defaultScale, "data scale: tiny, small, or medium")
	fs.Int64Var(&f.seed, "seed", 1, "master seed: the generated data and every per-query seed derive from it")
	if groups&EngineFlags != 0 {
		fs.IntVar(&f.shards, "shards", 0, "lay every generated catalog out as N hash shards, a layout the planner prices as exchange cost: 0 or 1 = unsharded (the engine runs the same operators and results are identical at any count)")
	}
	if groups&CostFlags != 0 {
		fs.StringVar(&f.calibrationFile, "calibration-file", "", "price Monsoon's MCTS simulations with this calibrated cost profile (JSON from monsoon-trace calibrate)")
		fs.Float64Var(&f.replanThreshold, "replan-threshold", 0, "q-error at which a Monsoon EXECUTE round forces a mid-query replan with hardened statistics (0 disables)")
	}
	if groups&TelemetryFlags != 0 {
		fs.BoolVar(&f.planCache, "plan-cache", false, "plan every Monsoon run through one shared plan cache (hit rates in -metrics)")
		fs.BoolVar(&f.metrics, "metrics", false, "dump the Monsoon runs' accumulated metrics to stderr on exit")
		fs.StringVar(&f.obsAddr, "obs-addr", "", "serve live telemetry (/debug/vars, /metrics, /traces/recent) on this address, e.g. localhost:6060")
		fs.StringVar(&f.traceJSON, "trace-json", "", "write the structured traces (spans, messages, estimates) as JSON lines to FILE")
	}
	return f
}

// Scale returns the scale -scale names, with -seed and the engine flags
// applied.
func (f *Flags) Scale() (Scale, error) {
	sc, err := ScaleNamed(f.scale)
	if err != nil {
		return Scale{}, err
	}
	sc.Seed = f.seed
	sc.Shards = f.shards
	return sc, nil
}

// Config returns the core.Config the cost and telemetry flags describe: the
// -calibration-file profile loaded, the -replan-threshold, a fresh plan cache
// under -plan-cache, a metrics registry under -metrics or -obs-addr, a
// JSON-lines sink writing the -trace-json file, and the -obs-addr telemetry
// server started with its trace ring on the sink. The cleanup it returns
// dumps the registry to stderr under -metrics, stops the server and closes
// the trace file; run it on every exit path. On error Config has cleaned up
// already.
func (f *Flags) Config() (core.Config, func(), error) {
	var cfg core.Config
	var undo []func()
	cleanup := func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}
	fail := func(format string, args ...any) (core.Config, func(), error) {
		cleanup()
		return core.Config{}, func() {}, fmt.Errorf(format, args...)
	}
	if f.calibrationFile != "" {
		p, err := cost.LoadProfile(f.calibrationFile)
		if err != nil {
			return fail("calibration file: %v", err)
		}
		cfg.Profile = p
	}
	cfg.ReplanThreshold = f.replanThreshold
	if f.planCache {
		cfg.Cache = plancache.New(0)
	}
	if f.metrics || f.obsAddr != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	if reg := cfg.Metrics; f.metrics {
		undo = append(undo, func() {
			fmt.Fprintln(os.Stderr, "metrics:")
			reg.Dump(os.Stderr)
		})
	}
	if f.traceJSON != "" {
		file, err := os.Create(f.traceJSON)
		if err != nil {
			return fail("cannot create trace file: %v", err)
		}
		undo = append(undo, func() {
			if err := file.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "trace file: %v\n", err)
			}
		})
		cfg.Sink = obs.NewJSONL(file)
	}
	if f.obsAddr != "" {
		ring := obs.NewTraceRing(0)
		srv, err := obshttp.Serve(f.obsAddr, cfg.Metrics, ring)
		if err != nil {
			return fail("cannot serve telemetry: %v", err)
		}
		undo = append(undo, func() { srv.Close() })
		f.telemetryAddr = srv.Addr
		fmt.Fprintf(os.Stderr, "telemetry at http://%s\n", srv.Addr)
		cfg.Sink = obs.Multi(cfg.Sink, ring)
	}
	return cfg, cleanup, nil
}

// TelemetryAddr is the address the -obs-addr server listens on once Config
// has started it, and "" otherwise.
func (f *Flags) TelemetryAddr() string { return f.telemetryAddr }
