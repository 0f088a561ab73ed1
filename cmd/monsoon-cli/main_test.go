package main

import (
	"flag"
	"testing"
)

// TestFlagSurface pins monsoon-cli's flags — every name and its default — as main
// registers them. A flag added, dropped, renamed or given a new default
// fails here; change the list only with the change that means to.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("monsoon-cli", flag.ContinueOnError)
	bindFlags(fs)
	want := map[string]string{
		"bench":            "tpch",
		"calibration-file": "",
		"explain":          "false",
		"metrics":          "false",
		"obs-addr":         "",
		"opt":              "monsoon",
		"plan-cache":       "false",
		"prior":            "Spike and Slab",
		"query":            "",
		"repeat":           "1",
		"replan-threshold": "0",
		"scale":            "tiny",
		"seed":             "1",
		"shards":           "0",
		"trace-json":       "",
	}
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	for name, def := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("-%s is gone", name)
		} else if g != def {
			t.Errorf("-%s defaults to %q, want %q", name, g, def)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("-%s is new", name)
		}
	}
}
