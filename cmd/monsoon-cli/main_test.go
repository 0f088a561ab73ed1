package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
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
		"scale":            "tiny",
		"seed":             "1",
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

// cli runs monsoon-cli with args and returns what it printed on stdout.
func cli(t *testing.T, args ...string) string {
	t.Helper()
	fs := flag.NewFlagSet("monsoon-cli", flag.ContinueOnError)
	o := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = run(o)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("monsoon-cli %s: %v", strings.Join(args, " "), err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed)
}

// TestEveryOptionTracesAndExplains: every -opt streams its spans to
// -trace-json, and -explain prints an estimate beside every plan node of
// every option that commits to one plan. Hand-written plans exist for the
// OTT queries only.
func TestEveryOptionTracesAndExplains(t *testing.T) {
	planners := []string{"postgres", "defaults", "greedy", "ondemand", "sampling", "lec", "handwritten"}
	for _, opt := range append([]string{"monsoon", "skinner"}, planners...) {
		bench, query := "tpch", "tpch-q3"
		if opt == "handwritten" {
			bench, query = "ott", "ott-q01"
		}
		trace := filepath.Join(t.TempDir(), "trace.jsonl")
		cli(t, "-bench", bench, "-query", query, "-opt", opt, "-trace-json", trace)
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		if spans := strings.Count(string(data), `{"type":"span"`); spans == 0 {
			t.Errorf("-opt %s -trace-json wrote no spans", opt)
		}
	}
	for _, opt := range planners {
		bench, query := "tpch", "tpch-q3"
		if opt == "handwritten" {
			bench, query = "ott", "ott-q01"
		}
		out := cli(t, "-bench", bench, "-query", query, "-opt", opt, "-explain")
		nodes := 0
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "scan ") || strings.Contains(line, "⋈ [") {
				nodes++
				if !strings.Contains(line, " est=") || strings.Contains(line, " est=?") {
					t.Errorf("-opt %s -explain: node without an estimate: %q", opt, line)
				}
			}
		}
		if nodes == 0 {
			t.Errorf("-opt %s -explain printed no plan:\n%s", opt, out)
		}
	}
}
