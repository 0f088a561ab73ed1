package main

import (
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"monsoon/internal/bench/tpch"
	"monsoon/internal/obs"
	"monsoon/internal/sqlish"
)

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {100, 100}, {0, 1}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
}

// The percentile rule: the highest percentile a sample supports is the one
// with ten samples beyond it, so p95 needs 200 samples.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{200, 95}, {1000, 99}, {100, 90}, {140, 100 * 130.0 / 140}, {10, 0}, {0, 0}} {
		if got := supportedPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if supportedPercentile(199) >= 95 {
		t.Error("199 samples must not support p95")
	}
}

// An open loop charges a request the time it waited behind a stall: with one
// connection and a server that holds the first request for 100 ms, the
// requests due at 20 and 40 ms are answered at about 100 ms, so their
// latencies are about 80 and 60 ms although the server answered each at once.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ops := []op{{Query: "stall"}, {Query: "b", Due: 20 * time.Millisecond}, {Query: "c", Due: 40 * time.Millisecond}}
	stalled := func(o op) answer {
		if o.Query == "stall" {
			time.Sleep(100 * time.Millisecond)
		}
		return answer{}
	}
	samples, wall := openLoop(ops, 1, stalled)
	if wall < 100*time.Millisecond {
		t.Fatalf("wall %v: the loop returned before the stalled request finished", wall)
	}
	const slack = 40 * time.Millisecond // scheduling noise on a loaded runner
	for i, want := range []time.Duration{100 * time.Millisecond, 80 * time.Millisecond, 60 * time.Millisecond} {
		if got := samples[i].Latency; got < want-time.Millisecond || got > want+slack {
			t.Errorf("op %d: latency %v, want about %v (timed from the due time)", i, got, want)
		}
	}
	if lag := samples[1].Lag; lag < 79*time.Millisecond {
		t.Errorf("op 1 left the generator %v after its due time, want about 80ms", lag)
	}
	if late, maxLag := lateness(samples); late < 0.6 || maxLag < 79 {
		t.Errorf("lateness = %g, %g ms; two of three requests left late", late, maxLag)
	}

	// The same server under a closed loop hides the stall: the clock starts at
	// the send.
	samples, _ = closedLoop(ops, 1, stalled)
	if got := samples[1].Latency; got > slack {
		t.Errorf("closed loop op 1: latency %v, want near zero", got)
	}
}

func TestListsFollowTheSeed(t *testing.T) {
	names := []string{"q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9", "q10"}
	warm, _ := findWorkload("serve_warm")
	cold, _ := findWorkload("serve_cold")

	a, b := closedPass(warm, names, 7, 3), closedPass(warm, names, 7, 3)
	if !reflect.DeepEqual(a, b) {
		t.Error("closedPass: the same seed and pass gave two lists")
	}
	if len(a) != warm.copies*len(names) {
		t.Errorf("closedPass: %d operations, want %d", len(a), warm.copies*len(names))
	}
	if reflect.DeepEqual(a, closedPass(warm, names, 8, 3)) || reflect.DeepEqual(a, closedPass(warm, names, 7, 4)) {
		t.Error("closedPass: another seed or pass gave the same order")
	}
	for _, o := range a {
		if o.Cold {
			t.Fatal("serve_warm sent a request with a seed: it would miss the plan cache")
		}
	}

	// Cold seeds belong to (seed, pass, query), not to the shuffle, and no two
	// requests of a run share one.
	seen := map[int64]bool{}
	for pass := 0; pass < 3; pass++ {
		for _, o := range closedPass(cold, names, 7, pass) {
			if !o.Cold || seen[o.Seed] {
				t.Fatalf("serve_cold pass %d: %s cold=%v, seed reused=%v", pass, o.Query, o.Cold, seen[o.Seed])
			}
			seen[o.Seed] = true
		}
	}

	names[3] = openColdQuery
	s1, err := openSchedule(names, 7, 17)
	if err != nil {
		t.Fatal(err)
	}
	if s2, _ := openSchedule(names, 7, 17); !reflect.DeepEqual(s1, s2) {
		t.Error("openSchedule: the same seed gave two schedules")
	}
	if s3, _ := openSchedule(names, 8, 17); reflect.DeepEqual(s1, s3) {
		t.Error("openSchedule: another seed gave the same schedule")
	}
	if len(s1) != 200 {
		t.Errorf("openSchedule: %d arrivals in 17 s at %g/s, want 200", len(s1), openRateRPS)
	}
	slot := 17 * time.Second / 200
	follows := map[string]map[int]bool{} // query → distances behind the cold request
	for i, o := range s1 {
		if lo := time.Duration(i) * slot; o.Due < lo || o.Due > lo+slot {
			t.Fatalf("arrival %d due at %v, outside its slot [%v, %v]", i, o.Due, lo, lo+slot)
		}
		if first := i%len(names) == 0; o.Cold != first || first != (o.Query == openColdQuery) {
			t.Fatalf("arrival %d: %s cold=%v; each block sends %s cold, first", i, o.Query, o.Cold, openColdQuery)
		}
		if follows[o.Query] == nil {
			follows[o.Query] = map[int]bool{}
		}
		follows[o.Query][i%len(names)] = true
	}
	for _, n := range names {
		if n != openColdQuery && len(follows[n]) != len(names)-1 {
			t.Errorf("%s followed the cold request at %d distances, want all %d", n, len(follows[n]), len(names)-1)
		}
	}
	if _, err := openSchedule(names[:3], 7, 17); err == nil {
		t.Error("a daemon that does not serve the cold query must fail the schedule")
	}
}

// Self time is the span minus what its children cover: overlap between
// children counts once, a child that outlasts its parent is clipped.
func TestSelfTime(t *testing.T) {
	spans := []*span{
		{ID: 1, Layer: "daemon", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "core", Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: "engine", Start: 20, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Layer: "engine", Start: 90, End: 120}, // outlasts 1
		{ID: 5, Parent: 3, Layer: "engine", Start: 25, End: 45},
		{ID: 6, Parent: 3, Layer: "engine", Start: 26, End: 44}, // inside 5's interval
	}
	settle(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 20, 4: 30, 5: 20, 6: 18}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d: self %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
	// By layer, every instant counts once, for the innermost open span: the
	// instants where 2 and 3 overlap go to 3 (the later start), 5 and 6 to 6,
	// and the 20 ns span 4 runs past its parent still ran.
	by := exclusiveByLayer(spans)
	if by["daemon"] != 50 || by["core"] != 10 || by["engine"] != 30+10+20 {
		t.Errorf("exclusiveByLayer = %v", by)
	}
}

// The program's own spans hang under the benchmark's: children of the query
// root go to the phase that holds their start, the rest keep their parent.
func TestImportObs(t *testing.T) {
	rec := newRecorder()
	root := rec.start(0, nil, "daemon", "daemon.op")
	plan := rec.start(0, root, "core", "core.plan_round")
	plan.Start, plan.End = 100, 200
	exec := rec.start(0, root, "core", "core.execute_round")
	exec.Start, exec.End = 200, 900
	root.Start, root.End = 0, 1000
	at := func(ns int64) time.Time { return rec.epoch.Add(time.Duration(ns)) }
	rec.importObs(0, []*span{plan, exec}, []*obs.Span{
		// completion order: children before parents
		{ID: 2, Parent: 1, Kind: obs.KPlan, Start: at(110), Dur: 80},
		{ID: 4, Parent: 3, Kind: obs.KScan, Start: at(310), Dur: 100},
		{ID: 3, Parent: 1, Kind: obs.KMaterialize, Start: at(300), Dur: 500},
		{ID: 1, Kind: obs.KQuery, Start: at(50), Dur: 900},
	})
	if len(rec.spans) != 6 {
		t.Fatalf("%d spans, want 6 (the query root is dropped)", len(rec.spans))
	}
	byName := map[string]*span{}
	for _, s := range rec.spans {
		byName[s.Name] = s
	}
	if got := byName[obs.KPlan]; got.Parent != plan.ID || got.Layer != "mcts" {
		t.Errorf("plan span: parent %d layer %s, want %d mcts", got.Parent, got.Layer, plan.ID)
	}
	if got := byName[obs.KMaterialize]; got.Parent != exec.ID || got.Layer != "engine" {
		t.Errorf("materialize span: parent %d layer %s, want %d engine", got.Parent, got.Layer, exec.ID)
	}
	if got := byName[obs.KScan]; got.Parent != byName[obs.KMaterialize].ID {
		t.Errorf("scan span: parent %d, want the materialize span %d", got.Parent, byName[obs.KMaterialize].ID)
	}
	if by := exclusiveByLayer(rec.spans); by["engine"] != 500 || by["mcts"] != 80 || by["core"] != 20+200 || by["daemon"] != 200 {
		t.Errorf("exclusiveByLayer = %v", by)
	}
}

// A nil recorder is the untraced pass: the same code, no spans.
func TestNilRecorder(t *testing.T) {
	var rec *recorder
	sp := rec.start(0, nil, "core", "x")
	sp.end()
	rec.importObs(0, nil, []*obs.Span{{ID: 1, Kind: obs.KScan}})
	if sp != nil {
		t.Error("a nil recorder handed out a span")
	}
}

// The rendered TPC-H texts parse back to the queries they came from.
func TestSQLTextRoundTrip(t *testing.T) {
	texts := tpchTexts()
	for i, q := range tpch.Queries() {
		back, err := sqlish.Parse(q.Name, texts[i], nil)
		if err != nil {
			t.Fatalf("%s: %q does not parse: %v", q.Name, texts[i], err)
		}
		render := func(joins, sels int, j func(int) string, s func(int) string) string {
			var b strings.Builder
			for k := 0; k < joins; k++ {
				b.WriteString(j(k) + ";")
			}
			for k := 0; k < sels; k++ {
				b.WriteString(s(k) + ";")
			}
			return b.String()
		}
		want := render(len(q.Joins), len(q.Sels), func(k int) string { return q.Joins[k].String() }, func(k int) string { return q.Sels[k].String() })
		got := render(len(back.Joins), len(back.Sels), func(k int) string { return back.Joins[k].String() }, func(k int) string { return back.Sels[k].String() })
		if got != want || !reflect.DeepEqual(back.Rels, q.Rels) || back.Out != q.Out {
			t.Errorf("%s: parsed back as %s, want %s", q.Name, got, want)
		}
	}
}

// BENCHMARK.json must satisfy the contract it is checked against, and name the
// workloads the code runs.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef, bounded bool) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range spec.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: malformed name or why", w.Name)
		}
		seen[w.Name] = true
	}
	setup := false
	for _, d := range spec.EndToEnd {
		check(d, true)
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, d := range spec.PerLayer {
		check(d, false)
	}
}

func TestReportRejectsDrift(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}}
	got, err := report(defs, map[string]float64{"a": 1, "b": 2})
	if err != nil || got["a"] != (metricValue{1, "ms"}) || got["b"] != (metricValue{2, "s"}) {
		t.Errorf("report = %v, %v", got, err)
	}
	if _, err := report(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a declared metric that was not measured must fail")
	}
	if _, err := report(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("a measured metric that is not declared must fail")
	}
}

func TestCheckReply(t *testing.T) {
	want := map[string]goldenAnswer{"q": {Rows: 3, Aggregate: 3, ResultHash: "h", Produced: 10}}
	ok := reply{status: 200}
	ok.body.Rows, ok.body.Aggregate, ok.body.ResultHash, ok.body.Produced = 3, 3, "h", 10
	if why := checkReply(want, op{Query: "q"}, ok); why != "" {
		t.Errorf("right answer rejected: %s", why)
	}
	replanned := ok
	replanned.body.ResultHash, replanned.body.Produced = "other", 12
	if why := checkReply(want, op{Query: "q", Cold: true}, replanned); why != "" {
		t.Errorf("a cold request may pay another plan's cost and row order: %s", why)
	}
	if checkReply(want, op{Query: "q"}, replanned) == "" {
		t.Error("a warm request with another hash must fail")
	}
	wrong := ok
	wrong.body.Rows = 4
	if checkReply(want, op{Query: "q", Cold: true}, wrong) == "" {
		t.Error("a cold request must still return the golden rows")
	}
	if checkReply(want, op{Query: "q"}, reply{status: 429}) == "" || checkReply(want, op{Query: "zz"}, ok) == "" {
		t.Error("a refused request and an unknown query must fail")
	}
}
