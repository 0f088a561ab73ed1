package obshttp

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"monsoon/internal/obs"
)

// fixtureRegistry builds a registry whose snapshot exercises all three
// instrument kinds with names that need Prometheus sanitization.
func fixtureRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("monsoon.rounds").Add(3)
	reg.Counter("monsoon.cache.hits").Add(7)
	reg.Gauge("monsoon.workers").Set(4)
	h := reg.Histogram("monsoon.plan.seconds")
	h.Observe(0.25)
	h.Observe(0.25)
	h.Observe(1.5)
	return reg
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, rec.Code)
	}
	return rec
}

func TestDebugVarsShape(t *testing.T) {
	h := Handler(fixtureRegistry(), nil)
	rec := get(t, h, "/debug/vars")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if got := doc["monsoon.rounds"]; got != float64(3) {
		t.Errorf("monsoon.rounds = %v, want 3", got)
	}
	if got := doc["monsoon.workers"]; got != float64(4) {
		t.Errorf("monsoon.workers = %v, want 4", got)
	}
	hist, ok := doc["monsoon.plan.seconds"].(map[string]any)
	if !ok {
		t.Fatalf("monsoon.plan.seconds not an object: %v", doc["monsoon.plan.seconds"])
	}
	if hist["count"] != float64(3) {
		t.Errorf("histogram count = %v, want 3", hist["count"])
	}
	for _, k := range []string{"sum", "min", "max", "mean", "p50", "p95", "p99"} {
		if _, ok := hist[k]; !ok {
			t.Errorf("histogram missing %q", k)
		}
	}

	// Key order is the deterministic Snapshot order: counters first (sorted),
	// then gauges, then histograms.
	body := rec.Body.String()
	order := []string{"monsoon.cache.hits", "monsoon.rounds", "monsoon.workers", "monsoon.plan.seconds"}
	last := -1
	for _, name := range order {
		i := strings.Index(body, `"`+name+`"`)
		if i < 0 {
			t.Fatalf("%s missing from /debug/vars", name)
		}
		if i < last {
			t.Errorf("%s out of snapshot order", name)
		}
		last = i
	}
}

func TestMetricsPrometheusExposition(t *testing.T) {
	h := Handler(fixtureRegistry(), nil)
	rec := get(t, h, "/metrics")
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()
	// The exposition is deterministic, so the scalar series can be checked as
	// a golden prefix; histogram buckets depend only on the observations.
	wantLines := []string{
		"# TYPE monsoon_cache_hits counter",
		"monsoon_cache_hits 7",
		"# TYPE monsoon_rounds counter",
		"monsoon_rounds 3",
		"# TYPE monsoon_workers gauge",
		"monsoon_workers 4",
		"# TYPE monsoon_plan_seconds histogram",
	}
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) < len(wantLines) {
		t.Fatalf("exposition too short:\n%s", body)
	}
	for i, want := range wantLines {
		if lines[i] != want {
			t.Errorf("line %d = %q, want %q", i, lines[i], want)
		}
	}
	// Buckets are cumulative and closed by +Inf, _sum, _count. 0.25 falls in
	// the [0.25, 0.5) log₂ bucket (reported as le=0.5); 1.5 in [1, 2).
	for _, want := range []string{
		`monsoon_plan_seconds_bucket{le="0.5"} 2`,
		`monsoon_plan_seconds_bucket{le="2"} 3`,
		`monsoon_plan_seconds_bucket{le="+Inf"} 3`,
		"monsoon_plan_seconds_sum 2",
		"monsoon_plan_seconds_count 3",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestRuntimeGaugesOnScrape: both metric documents end with the runtime's GC
// gauges, read at scrape time, and leave the registry itself untouched.
func TestRuntimeGaugesOnScrape(t *testing.T) {
	reg := fixtureRegistry()
	h := Handler(reg, nil)
	runtime.GC()
	body := get(t, h, "/metrics").Body.String()
	for _, name := range []string{"runtime_gc_cycles", "runtime_heap_live_bytes", "runtime_goroutines"} {
		if !strings.Contains(body, "# TYPE "+name+" gauge\n") {
			t.Errorf("/metrics lacks the %s gauge:\n%s", name, body)
		}
	}
	if i, j := strings.Index(body, "monsoon_plan_seconds_count"), strings.Index(body, "runtime_gc_cycles"); i < 0 || j < i {
		t.Errorf("runtime gauges must follow the registry's entries:\n%s", body)
	}
	rec := get(t, h, "/debug/vars")
	var vars map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if n, _ := vars["runtime.gc.cycles"].(float64); n < 1 {
		t.Errorf("runtime.gc.cycles = %v after a forced GC, want ≥ 1", vars["runtime.gc.cycles"])
	}
	if n, _ := vars["runtime.heap.live_bytes"].(float64); n <= 0 {
		t.Errorf("runtime.heap.live_bytes = %v, want > 0", vars["runtime.heap.live_bytes"])
	}
	if n, _ := vars["runtime.goroutines"].(float64); n < 1 {
		t.Errorf("runtime.goroutines = %v, want ≥ 1", vars["runtime.goroutines"])
	}
	for _, e := range reg.Snapshot() {
		if strings.HasPrefix(e.Name, "runtime.") {
			t.Errorf("scraping wrote %s into the registry", e.Name)
		}
	}
}

func TestTracesRecent(t *testing.T) {
	ring := obs.NewTraceRing(4)
	tr := obs.NewTracer(ring)
	root := tr.Start(obs.KQuery, "q1")
	child := tr.Start(obs.KScan, "lineitem")
	child.End()
	root.End()

	rec := get(t, Handler(nil, ring), "/traces/recent")
	var traces []struct {
		Trace int64  `json:"trace"`
		Query string `json:"query"`
		Spans int    `json:"spans"`
		Root  *struct {
			Span     *obs.Span         `json:"span"`
			Children []json.RawMessage `json:"children"`
		} `json:"root"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Query != "q1" || got.Spans != 2 {
		t.Errorf("trace = %+v, want query q1 with 2 spans", got)
	}
	if got.Root == nil || got.Root.Span.Kind != obs.KQuery || len(got.Root.Children) != 1 {
		t.Errorf("root tree malformed: %+v", got.Root)
	}
}

func TestNilArgumentsServeWellFormedDocuments(t *testing.T) {
	h := Handler(nil, nil)

	rec := get(t, h, "/debug/vars")
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Errorf("/debug/vars with nil registry: %v\n%s", err, rec.Body.String())
	}
	if len(doc) != 0 {
		t.Errorf("/debug/vars with nil registry not empty: %v", doc)
	}

	if body := get(t, h, "/metrics").Body.String(); body != "" {
		t.Errorf("/metrics with nil registry = %q, want empty", body)
	}

	rec = get(t, h, "/traces/recent")
	var traces []json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Errorf("/traces/recent with nil ring: %v\n%s", err, rec.Body.String())
	}
	if len(traces) != 0 {
		t.Errorf("/traces/recent with nil ring not empty: %s", rec.Body.String())
	}
}

func TestServeBindsAndAnswers(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", fixtureRegistry(), obs.NewTraceRing(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + srv.Addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc["monsoon.rounds"] != float64(3) {
		t.Errorf("live /debug/vars monsoon.rounds = %v", doc["monsoon.rounds"])
	}
}

// TestServeShutdownStopsListening pins the new lifecycle contract: Shutdown
// releases the port (a second Serve on the same address succeeds) and new
// connections are refused afterwards.
func TestServeShutdownStopsListening(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", fixtureRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	cl := &http.Client{Timeout: 2 * time.Second}
	if _, err := cl.Get("http://" + srv.Addr + "/debug/vars"); err == nil {
		t.Fatal("request after Shutdown succeeded; listener still open")
	}
	srv2, err := Serve(srv.Addr, fixtureRegistry(), nil)
	if err != nil {
		t.Fatalf("rebinding released address: %v", err)
	}
	_ = srv2.Close()
}

// TestServerHasHeaderTimeout pins the slowloris hardening on every served
// endpoint (CLI telemetry and daemon alike build through NewServer).
func TestServerHasHeaderTimeout(t *testing.T) {
	s := NewServer(http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 {
		t.Fatal("NewServer leaves ReadHeaderTimeout unset")
	}
	if s.IdleTimeout <= 0 {
		t.Fatal("NewServer leaves IdleTimeout unset")
	}
}
