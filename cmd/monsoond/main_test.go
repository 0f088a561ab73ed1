package main

import (
	"flag"
	"testing"
)

// TestFlagSurface pins monsoond's flags — every name and its default — as main
// registers them. A flag added, dropped, renamed or given a new default
// fails here; change the list only with the change that means to.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("monsoond", flag.ContinueOnError)
	bindFlags(fs)
	want := map[string]string{
		"addr":             ":8080",
		"bench":            "tpch",
		"cache-cap":        "0",
		"calibration-file": "",
		"drain-timeout":    "30s",
		"harden-stats":     "false",
		"iterations":       "0",
		"max-concurrent":   "8",
		"max-tuples":       "0",
		"scale":            "tiny",
		"seed":             "1",
		"timeout":          "0s",
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
