package tracefile

import (
	"math"
	"strings"
	"testing"
	"time"

	"monsoon/internal/obs"
)

const eventTrace = `{"type":"span","span":{"id":1,"kind":"scan","name":"lineitem","start":"2026-01-01T00:00:00Z","dur_ns":2000000}}
{"type":"span","span":{"id":2,"kind":"scan","name":"orders","start":"2026-01-01T00:00:00Z","dur_ns":4000000}}
{"type":"span","span":{"id":3,"kind":"join","name":"l-o","start":"2026-01-01T00:00:00Z","dur_ns":10000000}}
{"type":"message","msg":"EXECUTE round 1"}
{"type":"estimate","estimate":{"expr":"l-o","join":true,"round":1,"est":100,"actual":50,"q":2}}
{"type":"estimate","estimate":{"expr":"lineitem","join":false,"round":1,"est":10,"actual":10,"q":1}}
`

const countBaseline = `{"kind":"scan","count":2}
{"kind":"join","count":1}
`

func TestReadEventTrace(t *testing.T) {
	tr, err := Read(strings.NewReader(eventTrace))
	if err != nil {
		t.Fatal(err)
	}
	if tr.CountsOnly {
		t.Error("event trace marked CountsOnly")
	}
	if len(tr.Spans) != 3 || tr.Messages != 1 || len(tr.Estimates) != 2 {
		t.Errorf("got %d spans, %d messages, %d estimates", len(tr.Spans), tr.Messages, len(tr.Estimates))
	}
	if tr.Counts["scan"] != 2 || tr.Counts["join"] != 1 {
		t.Errorf("derived counts = %v", tr.Counts)
	}
}

func TestReadCountBaseline(t *testing.T) {
	tr, err := Read(strings.NewReader(countBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.CountsOnly {
		t.Error("count baseline not marked CountsOnly")
	}
	if tr.Counts["scan"] != 2 || tr.Counts["join"] != 1 {
		t.Errorf("counts = %v", tr.Counts)
	}
}

func TestReadRejectsMixedAndGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader(eventTrace + countBaseline)); err == nil {
		t.Error("mixed trace accepted")
	}
	if _, err := Read(strings.NewReader("{\"neither\":true}\n")); err == nil {
		t.Error("unrecognized record accepted")
	}
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Error("non-JSON line accepted")
	}
}

func TestKindReport(t *testing.T) {
	tr, err := Read(strings.NewReader(eventTrace))
	if err != nil {
		t.Fatal(err)
	}
	rep := tr.KindReport()
	if len(rep) != 2 {
		t.Fatalf("got %d kinds, want 2", len(rep))
	}
	// Sorted by kind name: join, scan.
	if rep[0].Kind != "join" || rep[1].Kind != "scan" {
		t.Fatalf("kind order %q, %q", rep[0].Kind, rep[1].Kind)
	}
	if rep[1].Count != 2 || rep[1].Total != 6*time.Millisecond || rep[1].Max != 4*time.Millisecond {
		t.Errorf("scan stats = %+v", rep[1])
	}
	if rep[0].P50 <= 0 || rep[0].P99 < rep[0].P50 {
		t.Errorf("join percentiles not monotone: %+v", rep[0])
	}
}

func TestQErrorsSeparatesMisses(t *testing.T) {
	tr := &Trace{Estimates: []obs.Estimate{
		{Expr: "a", Join: true, QError: 2},
		{Expr: "b", Join: true, QError: 8},
		{Expr: "c", Join: true, QError: math.Inf(1)},
		{Expr: "d", Join: true, QError: obs.QErrorMissThreshold},
		{Expr: "leaf", Join: false, QError: 1},
	}}
	s := tr.QErrors()
	if s.Joins != 4 || s.Leaves != 1 {
		t.Errorf("joins=%d leaves=%d", s.Joins, s.Leaves)
	}
	if s.Misses != 2 {
		t.Errorf("misses = %d, want 2 (the Inf and the clamp)", s.Misses)
	}
	// Geometric mean over the finite errors only (leaves included):
	// geo{2, 8, 1} = 16^(1/3).
	want := math.Cbrt(16)
	if math.Abs(s.GeoQ-want) > 1e-9 {
		t.Errorf("GeoQ = %g, want %g", s.GeoQ, want)
	}
	if s.MaxQ != 8 {
		t.Errorf("MaxQ = %g, want 8 (misses excluded)", s.MaxQ)
	}
}

func spanTrace(durs map[string][]time.Duration) *Trace {
	tr := &Trace{Counts: map[string]int{}}
	id := 0
	for kind, ds := range durs {
		for _, d := range ds {
			id++
			tr.Spans = append(tr.Spans, &obs.Span{ID: id, Kind: kind, Dur: d})
			tr.Counts[kind]++
		}
	}
	return tr
}

func TestDiffCounts(t *testing.T) {
	a := spanTrace(map[string][]time.Duration{"scan": {1, 1}, "join": {1}})
	b := spanTrace(map[string][]time.Duration{"scan": {1, 1, 1}, "join": {1}})
	diffs := Diff(a, b, DiffOptions{})
	if len(diffs) != 1 || !strings.Contains(diffs[0], "count scan: 2 vs 3") {
		t.Errorf("diffs = %v", diffs)
	}
	if diffs := Diff(a, a, DiffOptions{}); len(diffs) != 0 {
		t.Errorf("self-diff = %v", diffs)
	}
}

func TestDiffExcludesWorkersByDefault(t *testing.T) {
	a := spanTrace(map[string][]time.Duration{"scan": {1}, obs.KWorker: {1, 1, 1, 1}})
	b := spanTrace(map[string][]time.Duration{"scan": {1}, obs.KWorker: {1}})
	if diffs := Diff(a, b, DiffOptions{}); len(diffs) != 0 {
		t.Errorf("worker counts compared by default: %v", diffs)
	}
	diffs := Diff(a, b, DiffOptions{IncludeWorkers: true})
	if len(diffs) != 1 || !strings.Contains(diffs[0], "count worker: 4 vs 1") {
		t.Errorf("diffs with IncludeWorkers = %v", diffs)
	}
}

func TestDiffExcludesWorkerTimingsByDefault(t *testing.T) {
	// A worker's busy time follows the machine as its count does, so worker
	// timings are excluded unless opted in, like worker counts.
	ms := time.Millisecond
	a := spanTrace(map[string][]time.Duration{"scan": {100 * ms}, obs.KWorker: {100 * ms, 100 * ms}})
	b := spanTrace(map[string][]time.Duration{"scan": {100 * ms}, obs.KWorker: {300 * ms, 300 * ms}})
	if diffs := Diff(a, b, DiffOptions{TimingTol: 0.25}); len(diffs) != 0 {
		t.Errorf("worker timings compared by default: %v", diffs)
	}
	diffs := Diff(a, b, DiffOptions{TimingTol: 0.25, IncludeWorkers: true})
	if len(diffs) != 1 || !strings.Contains(diffs[0], "timing worker") {
		t.Errorf("diffs with IncludeWorkers = %v", diffs)
	}
}

func TestDiffTimings(t *testing.T) {
	a := spanTrace(map[string][]time.Duration{"join": {100 * time.Millisecond}})
	b := spanTrace(map[string][]time.Duration{"join": {150 * time.Millisecond}})
	// 50% drift: caught at 25% tolerance, passed at 60%.
	if diffs := Diff(a, b, DiffOptions{TimingTol: 0.25}); len(diffs) != 1 ||
		!strings.Contains(diffs[0], "timing join") {
		t.Errorf("25%% tol diffs = %v", diffs)
	}
	if diffs := Diff(a, b, DiffOptions{TimingTol: 0.60}); len(diffs) != 0 {
		t.Errorf("60%% tol diffs = %v", diffs)
	}

	// Below the MinTiming floor the relative drift is ignored.
	c := spanTrace(map[string][]time.Duration{"join": {100 * time.Microsecond}})
	d := spanTrace(map[string][]time.Duration{"join": {300 * time.Microsecond}})
	if diffs := Diff(c, d, DiffOptions{TimingTol: 0.25}); len(diffs) != 0 {
		t.Errorf("sub-floor timing flagged: %v", diffs)
	}

	// Counts-only baselines carry no timings; only counts are compared.
	base, err := Read(strings.NewReader(`{"kind":"join","count":1}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Diff(a, base, DiffOptions{TimingTol: 0.01}); len(diffs) != 0 {
		t.Errorf("counts-only diff = %v", diffs)
	}
}
