package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

const specPath = "BENCHMARK.json"

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json, the single list of what the benchmark reports:
// the code measures, this file names, and a run fails if the two disagree.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read %s (run from the repository root): %w", path, err)
	}
	var s benchSpec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s lists %d workloads, the benchmark has %d", path, len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			return nil, fmt.Errorf("%s workload %d is %q, the benchmark has %q", path, i, w.Name, workloads[i].name)
		}
	}
	return &s, nil
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs measured values with the declared metrics. Every declared
// metric must have been measured and every measured one declared: a silent
// gap either way would let the two lists drift.
func report(defs []metricDef, measured map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := measured[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s declares %q, which this run did not measure", specPath, d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range measured {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured but not declared in %s: %v", specPath, extra)
	}
	return out, nil
}
