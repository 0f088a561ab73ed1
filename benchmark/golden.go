package main

import (
	"encoding/json"
	"fmt"
	"os"
)

const goldenPath = "benchmark/golden.json"

// goldenAnswer pins one query's answer. Rows and Aggregate hold for every
// request seed: the seed steers the plan, never the result. ResultHash and
// Produced depend on the plan (row order, discarded work), so they are pinned
// for the daemon's default seed only and checked on warm requests only.
type goldenAnswer struct {
	Rows       int     `json:"rows"`
	Aggregate  float64 `json:"aggregate"`
	ResultHash string  `json:"result_hash,omitempty"`
	Produced   float64 `json:"produced"`
}

// goldens is benchmark/golden.json: the daemon's answers per served benchmark
// at the small scale, and engine_scan's per tree at scanSF.
type goldens struct {
	DataSeed int64                              `json:"data_seed"`
	ScanSF   float64                            `json:"scan_sf"`
	Serve    map[string]map[string]goldenAnswer `json:"serve"`
	Scan     map[string]goldenAnswer            `json:"scan"`
}

func loadGoldens() (*goldens, error) {
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("read goldens (run from the repository root): %w", err)
	}
	var g goldens
	if err := json.Unmarshal(blob, &g); err != nil {
		return nil, fmt.Errorf("parse %s: %w", goldenPath, err)
	}
	if g.DataSeed != dataSeed || g.ScanSF != scanSF {
		return nil, fmt.Errorf("%s was recorded for data seed %d, SF %g; the benchmark uses %d, %g: rerun with -update-golden",
			goldenPath, g.DataSeed, g.ScanSF, int64(dataSeed), scanSF)
	}
	return &g, nil
}

// checkReply reports why a daemon reply is wrong, or "" when it is right.
func checkReply(want map[string]goldenAnswer, o op, r reply) string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.status != 200:
		return fmt.Sprintf("status %d: %s", r.status, r.body.Error)
	}
	g, ok := want[o.Query]
	if !ok {
		return "no golden"
	}
	if r.body.Rows != g.Rows || r.body.Aggregate != g.Aggregate {
		return fmt.Sprintf("answer %d rows / %g, golden %d / %g", r.body.Rows, r.body.Aggregate, g.Rows, g.Aggregate)
	}
	if !o.Cold && (r.body.ResultHash != g.ResultHash || r.body.Produced != g.Produced) {
		return fmt.Sprintf("hash %s produced %g, golden %s / %g", r.body.ResultHash, r.body.Produced, g.ResultHash, g.Produced)
	}
	return ""
}

// updateGoldens records fresh goldens from the code as it stands: every named
// query of both served benchmarks at its default seed, and one pass of the
// engine_scan trees.
func updateGoldens(monsoond string) error {
	g := goldens{DataSeed: dataSeed, ScanSF: scanSF, Serve: map[string]map[string]goldenAnswer{}}
	for _, bench := range []string{"tpch", "udf"} {
		d, err := startDaemon(monsoond, bench)
		if err != nil {
			return err
		}
		names, err := d.names()
		if err != nil {
			d.stop()
			return err
		}
		answers := map[string]goldenAnswer{}
		for _, n := range names {
			r := d.query(op{Query: n})
			if r.err != nil || r.status != 200 {
				d.stop()
				return fmt.Errorf("golden %s/%s: status %d %v %s", bench, n, r.status, r.err, r.body.Error)
			}
			answers[n] = goldenAnswer{Rows: r.body.Rows, Aggregate: r.body.Aggregate,
				ResultHash: r.body.ResultHash, Produced: r.body.Produced}
		}
		d.stop()
		g.Serve[bench] = answers
	}
	set, err := newScanSet()
	if err != nil {
		return err
	}
	g.Scan = map[string]goldenAnswer{}
	for _, t := range set.trees {
		got, _, err := set.exec(t)
		if err != nil {
			return fmt.Errorf("golden scan %s: %w", t.name, err)
		}
		g.Scan[t.name] = got
	}
	blob, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(blob, '\n'), 0o644)
}
