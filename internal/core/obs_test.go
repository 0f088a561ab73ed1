package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"monsoon/internal/engine"
	"monsoon/internal/obs"
)

// TestTraceShimByteIdentical locks the trace-line contract: the lines
// delivered through an obs.MessageSink must be byte-identical
// whether or not a structured sink rides alongside, and must keep the exact
// action-string and "  materialized ..." formats callers grew to parse.
func TestTraceShimByteIdentical(t *testing.T) {
	run := func(withSink bool) ([]string, *obs.Collector) {
		cat, q := fixture()
		eng := engine.New(cat)
		var lines []string
		trace := obs.MessageSink(func(s string) { lines = append(lines, s) })
		cfg := Config{Seed: 9, Iterations: 200, Sink: trace}
		col := &obs.Collector{}
		if withSink {
			cfg.Sink = obs.Multi(col, trace)
		}
		if _, err := Run(q, eng, &engine.Budget{}, cfg); err != nil {
			t.Fatal(err)
		}
		return lines, col
	}
	plain, _ := run(false)
	both, col := run(true)
	if !reflect.DeepEqual(plain, both) {
		t.Fatalf("trace lines changed when a structured sink was attached:\nplain: %q\nboth:  %q", plain, both)
	}
	if !reflect.DeepEqual(plain, col.Messages) {
		t.Fatalf("sink messages diverge from the line callback:\ncallback: %q\nsink:     %q", plain, col.Messages)
	}
	sawExec, sawMat := false, false
	for _, l := range plain {
		if l == "EXECUTE" {
			sawExec = true
		}
		if strings.HasPrefix(l, "  materialized ") && strings.HasSuffix(l, " objects produced)") {
			sawMat = true
		}
	}
	if !sawExec || !sawMat {
		t.Errorf("legacy line formats missing (EXECUTE %v, materialized %v): %q", sawExec, sawMat, plain)
	}
}

// TestTracedRunBitIdenticalToUntraced guards the observability layer's core
// promise: attaching a sink must observe the run, never perturb it — same
// rows, same aggregate, same objects produced, same action count.
func TestTracedRunBitIdenticalToUntraced(t *testing.T) {
	run := func(sink obs.EventSink, reg *obs.Registry) *Result {
		cat, q := fixture()
		eng := engine.New(cat)
		res, err := Run(q, eng, &engine.Budget{}, Config{
			Seed: 11, Iterations: 200, Sink: sink, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil, nil)
	traced := run(&obs.Collector{}, obs.NewRegistry())
	if plain.Rows != traced.Rows || plain.Value != traced.Value ||
		plain.Produced != traced.Produced || plain.Actions != traced.Actions ||
		plain.Executes != traced.Executes || plain.SigmaOps != traced.SigmaOps {
		t.Errorf("tracing perturbed the run:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}

// TestResultTimingAndSpanInvariants checks the Result accounting against the
// span stream: non-negative component times summing to no more than the wall
// time, and Executes/Actions/SigmaOps agreeing with the emitted span counts.
func TestResultTimingAndSpanInvariants(t *testing.T) {
	cat, q := fixture()
	eng := engine.New(cat)
	col := &obs.Collector{}
	start := time.Now()
	res, err := Run(q, eng, &engine.Budget{}, Config{Seed: 7, Iterations: 300, Sink: col})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}

	if res.PlanTime < 0 || res.SigmaTime < 0 || res.ExecTime < 0 {
		t.Errorf("negative component time: %+v", res)
	}
	if sum := res.PlanTime + res.SigmaTime + res.ExecTime; sum > wall {
		t.Errorf("components %v exceed wall time %v", sum, wall)
	}

	if n := len(col.SpansOf(obs.KQuery)); n != 1 {
		t.Errorf("query spans = %d, want 1", n)
	}
	if n := len(col.SpansOf(obs.KAction)); n != res.Actions {
		t.Errorf("action spans = %d, want Actions = %d", n, res.Actions)
	}
	if n := len(col.SpansOf(obs.KPlan)); n != res.Actions {
		t.Errorf("plan spans = %d, want one per action = %d", n, res.Actions)
	}
	if n := len(col.SpansOf(obs.KSigma)); n != res.SigmaOps {
		t.Errorf("sigma spans = %d, want SigmaOps = %d", n, res.SigmaOps)
	}
	execSpans := 0
	for _, sp := range col.SpansOf(obs.KAction) {
		if sp.Name == "exec" {
			execSpans++
		}
	}
	if execSpans != res.Executes {
		t.Errorf("exec action spans = %d, want Executes = %d", execSpans, res.Executes)
	}
	if n := len(col.SpansOf(obs.KMaterialize)); n != len(res.Executed) {
		t.Errorf("materialize spans = %d, want one per executed tree = %d", n, len(res.Executed))
	}

	// Every span completed (End stamps Dur) and links into the one trace
	// tree rooted at the query span.
	ids := map[int]bool{0: true}
	for _, sp := range col.Spans {
		ids[sp.ID] = true
	}
	for _, sp := range col.Spans {
		if sp.Dur < 0 {
			t.Errorf("span %s/%s has negative duration", sp.Kind, sp.Name)
		}
		if !ids[sp.Parent] {
			t.Errorf("span %s/%s parent %d never emitted", sp.Kind, sp.Name, sp.Parent)
		}
	}

	// Estimate records: emitted at every EXECUTE, q-errors well-formed, and
	// the round numbers cover 1..Executes.
	if len(col.Estimates) == 0 {
		t.Fatal("no estimate records emitted")
	}
	rounds := map[int]bool{}
	for _, e := range col.Estimates {
		if e.QError < 1 {
			t.Errorf("estimate %s: q-error %g < 1", e.Expr, e.QError)
		}
		if got := obs.QError(e.Est, e.Actual); got != e.QError {
			t.Errorf("estimate %s: stored q %g != recomputed %g", e.Expr, e.QError, got)
		}
		if e.Round < 1 || e.Round > res.Executes {
			t.Errorf("estimate %s: round %d outside [1,%d]", e.Expr, e.Round, res.Executes)
		}
		rounds[e.Round] = true
	}
	if len(rounds) != res.Executes {
		t.Errorf("estimates cover %d rounds, want %d", len(rounds), res.Executes)
	}
}

// TestMetricsAgreeWithResult checks that the registry counters installed by
// the driver match the Result accounting.
func TestMetricsAgreeWithResult(t *testing.T) {
	cat, q := fixture()
	eng := engine.New(cat)
	reg := obs.NewRegistry()
	res, err := Run(q, eng, &engine.Budget{}, Config{Seed: 7, Iterations: 300, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		want int
	}{
		{"monsoon.actions", res.Actions},
		{"monsoon.executes", res.Executes},
		{"monsoon.sigma_ops", res.SigmaOps},
	}
	for _, c := range checks {
		if got := reg.Counter(c.name).Value(); got != int64(c.want) {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if st := reg.Histogram("monsoon.plan.time").Stats(); st.Count != int64(res.Actions) {
		t.Errorf("plan.time observations = %d, want one per action = %d", st.Count, res.Actions)
	}
	if st := reg.Histogram("monsoon.qerror.join").Stats(); st.Count > 0 && st.Min < 1 {
		t.Errorf("join q-error min %g < 1", st.Min)
	}
}

// TestEngineOperatorSpansCarryRows spot-checks the engine instrumentation:
// scans and joins must report their data flow.
func TestEngineOperatorSpansCarryRows(t *testing.T) {
	cat, q := fixture()
	eng := engine.New(cat)
	col := &obs.Collector{}
	if _, err := Run(q, eng, &engine.Budget{}, Config{Seed: 7, Iterations: 300, Sink: col}); err != nil {
		t.Fatal(err)
	}
	scans := col.SpansOf(obs.KScan)
	if len(scans) == 0 {
		t.Fatal("no scan spans")
	}
	for _, sp := range scans {
		if sp.RowsIn <= 0 {
			t.Errorf("scan %s: rows_in = %d, want > 0", sp.Name, sp.RowsIn)
		}
	}
	joins := append(col.SpansOf(obs.KHashProbe), col.SpansOf(obs.KNestedLoop)...)
	if len(joins) == 0 {
		t.Fatal("no join spans")
	}
	probed := false
	for _, sp := range joins {
		if sp.RowsIn > 0 {
			probed = true
		}
	}
	if !probed {
		t.Errorf("no join span reports consumed rows: %v", fmt.Sprint(joins))
	}
}
