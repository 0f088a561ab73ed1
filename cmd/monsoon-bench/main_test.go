package main

import (
	"flag"
	"testing"
)

// TestFlagSurface pins monsoon-bench's flags — every name and its default — as main
// registers them. A flag added, dropped, renamed or given a new default
// fails here; change the list only with the change that means to.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("monsoon-bench", flag.ContinueOnError)
	bindFlags(fs)
	want := map[string]string{
		"calibration-file": "",
		"cpuprofile":       "",
		"exp":              "all",
		"memprofile":       "",
		"metrics":          "false",
		"obs-addr":         "",
		"obs-linger":       "0s",
		"plan-cache":       "false",
		"scale":            "small",
		"seed":             "1",
		"trace-json":       "",
		"v":                "false",
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
