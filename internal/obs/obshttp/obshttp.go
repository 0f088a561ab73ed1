// Package obshttp serves the obs layer over HTTP with nothing but the
// standard library: a /debug/vars-style JSON snapshot of the metrics
// Registry, a Prometheus text-exposition /metrics endpoint, and
// /traces/recent serving the span trees of recently completed queries. Both
// metric documents end with the Go runtime's garbage-collection gauges and
// the engine's free-list counters, read when they are scraped. The handler
// set is designed to be mounted as-is by the future monsoond daemon; today
// both CLIs expose it behind -obs-addr so long benchmark campaigns can be
// watched live.
package obshttp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/metrics"
	"strings"
	"time"

	"monsoon/internal/engine"
	"monsoon/internal/obs"
)

// Handler returns a mux serving the telemetry routes:
//
//	/debug/vars    JSON snapshot of the registry, deterministically ordered
//	/metrics       Prometheus text exposition (version 0.0.4)
//	/traces/recent JSON array of recent query span trees, newest first
//
// The two metric routes append the runtime gauges (see runtimeGauges) and the
// free-list counters (see freeListCounters) to the registry's. Either
// argument may be nil: the corresponding routes serve empty (but
// well-formed) documents.
func Handler(reg *obs.Registry, ring *obs.TraceRing) http.Handler {
	mux := http.NewServeMux()
	Mount(mux, reg, ring)
	return mux
}

// Mount registers the telemetry routes on an existing mux, so a server with
// its own routes (the monsoond daemon's /query) shares one mux with them.
func Mount(mux *http.ServeMux, reg *obs.Registry, ring *obs.TraceRing) {
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		writeVars(w, snapshot(reg))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, snapshot(reg))
	})
	mux.HandleFunc("/traces/recent", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		var recent []*obs.RecentTrace
		if ring != nil {
			recent = ring.Recent()
		}
		if recent == nil {
			recent = []*obs.RecentTrace{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(recent)
	})
}

// Server is a running telemetry endpoint: the bound address plus a shutdown
// handle. Serve and ServeHandler return one so callers can stop the listener
// — earlier versions leaked the http.Server, leaving no way to stop it and
// no slowloris protection.
type Server struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string
	srv  *http.Server
	done chan struct{}
}

// Shutdown gracefully stops the server: the listener closes immediately, and
// in-flight requests get until ctx expires to finish.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// Close stops the server immediately, dropping in-flight requests.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

// NewServer wraps an arbitrary handler in an http.Server with the timeout
// hardening a long-lived endpoint needs: ReadHeaderTimeout bounds slowloris
// header dribbling, IdleTimeout reaps idle keep-alive connections. No
// WriteTimeout is set — query responses legitimately take as long as their
// execution budget allows; per-request bounds belong to the handler.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// Serve listens on addr and serves Handler(reg, ring) on a background
// goroutine — telemetry must never block a query. The listener is created
// synchronously so a bad address fails fast. Stop the returned server with
// Shutdown or Close.
func Serve(addr string, reg *obs.Registry, ring *obs.TraceRing) (*Server, error) {
	return ServeHandler(addr, Handler(reg, ring))
}

// ServeHandler is Serve for an arbitrary handler (the daemon mounts its
// /query routes next to the telemetry set on one mux).
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{Addr: ln.Addr().String(), srv: NewServer(h), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// runtimeSamples are the runtime/metrics series runtimeGauges reads, each
// under the gauge name it is published as.
var runtimeSamples = []struct{ metric, gauge string }{
	{"/gc/cycles/total:gc-cycles", "runtime.gc.cycles"},
	{"/gc/heap/live:bytes", "runtime.heap.live_bytes"},
	{"/sched/goroutines:goroutines", "runtime.goroutines"},
}

// runtimeGauges reads, from runtime/metrics, the garbage-collection cycles
// completed since the process started, the heap bytes live after the last
// cycle, and the goroutines running — a registry of three gauges, sampled
// when called, so a scrape costs the serving path nothing per request.
func runtimeGauges() *obs.Registry {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, r := range runtimeSamples {
		samples[i].Name = r.metric
	}
	metrics.Read(samples)
	reg := obs.NewRegistry()
	for i, r := range runtimeSamples {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			reg.Gauge(r.gauge).Set(float64(samples[i].Value.Uint64()))
		}
	}
	return reg
}

// freeListCounters reads the engine's free-list takes since the process
// started: per list, engine.freelist.<list>.hits counts the takes a released
// buffer served and .misses those that allocated. A process that never
// releases counts misses alone.
func freeListCounters() *obs.Registry {
	reg := obs.NewRegistry()
	for _, c := range engine.FreeListCounts() {
		reg.Counter("engine.freelist." + c.List + ".hits").Add(int64(c.Hits))
		reg.Counter("engine.freelist." + c.List + ".misses").Add(int64(c.Misses))
	}
	return reg
}

// snapshot is what the metric routes render: the registry's entries, then
// the runtime gauges, then the free-list counters; nothing for a nil
// registry.
func snapshot(reg *obs.Registry) []obs.SnapshotEntry {
	if reg == nil {
		return nil
	}
	snap := append(reg.Snapshot(), runtimeGauges().Snapshot()...)
	return append(snap, freeListCounters().Snapshot()...)
}

// writeVars renders a snapshot as a single JSON object. Key order follows
// the snapshot (Registry.Snapshot's: counters, gauges, histograms; each
// sorted by name) — json.Marshal of a map would destroy that, so the document
// is built by hand.
func writeVars(w http.ResponseWriter, snap []obs.SnapshotEntry) {
	var b strings.Builder
	b.WriteString("{\n")
	for i, e := range snap {
		if i > 0 {
			b.WriteString(",\n")
		}
		key, _ := json.Marshal(e.Name)
		b.Write(key)
		b.WriteString(": ")
		switch e.Kind {
		case "counter":
			fmt.Fprintf(&b, "%d", int64(e.Value))
		case "gauge":
			fmt.Fprintf(&b, "%g", e.Value)
		case "histogram":
			s := e.Hist
			fmt.Fprintf(&b,
				`{"count": %d, "sum": %g, "min": %g, "max": %g, "mean": %g, "p50": %g, "p95": %g, "p99": %g}`,
				s.Count, s.Sum, s.Min, s.Max, s.Mean, s.P50, s.P95, s.P99)
		}
	}
	b.WriteString("\n}\n")
	_, _ = w.Write([]byte(b.String()))
}

func writePrometheus(w io.Writer, snap []obs.SnapshotEntry) {
	for _, e := range snap {
		name := sanitize(e.Name)
		switch e.Kind {
		case "counter":
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, int64(e.Value))
		case "gauge":
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, e.Value)
		case "histogram":
			fmt.Fprintf(w, "# TYPE %s histogram\n", name)
			var cum int64
			for _, b := range e.Buckets {
				cum += b.Count
				fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b.UpperBound, cum)
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, e.Hist.Count)
			fmt.Fprintf(w, "%s_sum %g\n", name, e.Hist.Sum)
			fmt.Fprintf(w, "%s_count %d\n", name, e.Hist.Count)
		}
	}
}

// sanitize maps a registry name onto the Prometheus metric-name alphabet
// [a-zA-Z0-9_:]: anything else becomes an underscore.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		}
		return '_'
	}, name)
}
