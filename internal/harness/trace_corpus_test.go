package harness

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"monsoon/internal/core"
	"monsoon/internal/obs"
	"monsoon/internal/obs/tracefile"
)

// updateSpans rewrites the span-count baseline from the current run instead
// of diffing against it:
//
//	go test ./internal/harness -run SpanCountBaseline -update-spans
var updateSpans = flag.Bool("update-spans", false,
	"rewrite testdata/span_counts_small.jsonl from the current run")

const spanBaselineFile = "testdata/span_counts_small.jsonl"

// spanCountRecord is one line of the JSONL baseline: how many spans of one
// operator kind the reference workload emits.
type spanCountRecord struct {
	Kind  string `json:"kind"`
	Count int    `json:"count"`
}

// spanCountWorkload runs Runner.TraceCorpus — the same workload CI records
// with `monsoon-bench -exp tracecorpus` — at Small scale with a span
// collector attached and tallies spans per operator kind.
func spanCountWorkload(t *testing.T) map[string]int {
	t.Helper()
	col := &obs.Collector{}
	r := &Runner{Scale: Small(), Config: core.Config{Sink: col}}
	if err := r.TraceCorpus(io.Discard); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, sp := range col.Spans {
		if sp.Kind == obs.KWorker {
			// Worker fan-out follows GOMAXPROCS, so KWorker counts are the
			// one machine-dependent quantity in the stream; the baseline
			// (like monsoon-trace diff) excludes them.
			continue
		}
		counts[sp.Kind]++
	}
	return counts
}

// TestSpanCountBaseline is the trace-regression corpus gate (ROADMAP): the
// reference workload's span counts per operator kind are pinned in
// testdata/span_counts_small.jsonl, and any drift — an operator silently
// planned differently, an instrumentation site dropped, an extra EXECUTE
// round — fails with a per-kind diff. Re-pin consciously with -update-spans
// after verifying the plan change is intended.
func TestSpanCountBaseline(t *testing.T) {
	counts := spanCountWorkload(t)

	if *updateSpans {
		recs := make([]spanCountRecord, 0, len(counts))
		for k, n := range counts {
			recs = append(recs, spanCountRecord{Kind: k, Count: n})
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].Kind < recs[j].Kind })
		if err := os.MkdirAll(filepath.Dir(spanBaselineFile), 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(spanBaselineFile)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %s (%d kinds)", spanBaselineFile, len(recs))
		return
	}

	// The comparison runs through tracefile.Diff — the same logic behind
	// `monsoon-trace diff` — so the CI gate and the offline tool can never
	// disagree about what counts as drift.
	want, err := tracefile.ReadFile(spanBaselineFile)
	if err != nil {
		t.Fatalf("no baseline (%v); record one with -update-spans", err)
	}
	got := &tracefile.Trace{Counts: counts, CountsOnly: true}
	drift := tracefile.Diff(got, want, tracefile.DiffOptions{})
	for _, d := range drift {
		t.Errorf("%s (got vs baseline)", d)
	}
	if len(drift) > 0 {
		t.Log("plan or instrumentation drift; if intended, re-pin with -update-spans")
	}
}
