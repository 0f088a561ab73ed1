// Package tracefile reads and analyzes the JSONL traces produced by
// -trace-json and the span-count baselines pinned under CI. It is the shared
// substrate of cmd/monsoon-trace (report, diff) and the harness's
// span-count regression gate, so the CLI and CI apply the same comparison
// semantics.
package tracefile

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"monsoon/internal/obs"
)

// Trace is one parsed trace: either a full JSONL event stream (Spans and
// Estimates populated, Counts derived) or a bare span-count baseline (Counts
// only, Spans empty).
type Trace struct {
	Spans     []*obs.Span
	Estimates []obs.Estimate
	Messages  int
	// Counts is the span tally per kind, derived from Spans for full traces
	// and read directly for count baselines.
	Counts map[string]int
	// CountsOnly marks a span-count baseline (no timing data).
	CountsOnly bool
}

// jsonlLine is the union of both line shapes tracefile reads: the
// obs JSONL event record ({"type":...}) and the harness span-count baseline
// record ({"kind":...,"count":...}).
type jsonlLine struct {
	Type     string        `json:"type"`
	Span     *obs.Span     `json:"span"`
	Msg      string        `json:"msg"`
	Estimate *obs.Estimate `json:"estimate"`
	Kind     string        `json:"kind"`
	Count    *int          `json:"count"`
}

// Read parses a trace from r, auto-detecting the format: lines carrying
// "type" are obs JSONL events, lines carrying "kind"+"count" are span-count
// baseline records. Blank lines are skipped; anything else is an error.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{Counts: make(map[string]int)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	sawEvent, sawCount := false, false
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ln jsonlLine
		if err := json.Unmarshal(raw, &ln); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		switch {
		case ln.Type == "span" && ln.Span != nil:
			sawEvent = true
			t.Spans = append(t.Spans, ln.Span)
			t.Counts[ln.Span.Kind]++
		case ln.Type == "message":
			sawEvent = true
			t.Messages++
		case ln.Type == "estimate" && ln.Estimate != nil:
			sawEvent = true
			t.Estimates = append(t.Estimates, *ln.Estimate)
		case ln.Type == "" && ln.Kind != "" && ln.Count != nil:
			sawCount = true
			t.Counts[ln.Kind] = *ln.Count
		default:
			return nil, fmt.Errorf("line %d: unrecognized record %s", lineNo, raw)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if sawCount && sawEvent {
		return nil, fmt.Errorf("mixed trace: both event records and count-baseline records")
	}
	t.CountsOnly = sawCount
	return t, nil
}

// ReadFile is Read over a file path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// KindStats summarizes one span kind's latency distribution, percentiles
// estimated from the same log₂ histogram the metrics registry uses.
type KindStats struct {
	Kind          string
	Count         int
	Total         time.Duration
	P50, P95, P99 time.Duration
	Max           time.Duration
}

// KindReport aggregates a trace's spans per kind, sorted by kind name.
func (t *Trace) KindReport() []KindStats {
	hists := make(map[string]*obs.Histogram)
	totals := make(map[string]time.Duration)
	maxes := make(map[string]time.Duration)
	for _, sp := range t.Spans {
		h := hists[sp.Kind]
		if h == nil {
			h = &obs.Histogram{}
			hists[sp.Kind] = h
		}
		h.ObserveDuration(sp.Dur)
		totals[sp.Kind] += sp.Dur
		if sp.Dur > maxes[sp.Kind] {
			maxes[sp.Kind] = sp.Dur
		}
	}
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	out := make([]KindStats, 0, len(hists))
	for kind, h := range hists {
		out = append(out, KindStats{
			Kind:  kind,
			Count: t.Counts[kind],
			Total: totals[kind],
			P50:   secs(h.Quantile(0.50)),
			P95:   secs(h.Quantile(0.95)),
			P99:   secs(h.Quantile(0.99)),
			Max:   maxes[kind],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// QErrSummary is a trace's estimate-quality rollup: geometric mean and max
// over finite q-errors, with unboundedly wrong estimates (one side empty)
// counted separately as misses.
type QErrSummary struct {
	Joins  int // join-node estimate records
	Leaves int // leaf (scan) estimate records
	GeoQ   float64
	MaxQ   float64
	Misses int
}

// QErrors summarizes the trace's estimate records.
func (t *Trace) QErrors() QErrSummary {
	var s QErrSummary
	var logSum float64
	var n int
	for _, e := range t.Estimates {
		if e.Join {
			s.Joins++
		} else {
			s.Leaves++
		}
		q := e.QError
		if e.Miss || obs.QErrorIsMiss(q) {
			s.Misses++
			continue
		}
		logSum += math.Log(q)
		n++
		if q > s.MaxQ {
			s.MaxQ = q
		}
	}
	if n > 0 {
		s.GeoQ = math.Exp(logSum / float64(n))
	}
	return s
}

// DiffOptions controls Diff.
type DiffOptions struct {
	// TimingTol is the allowed relative drift of per-kind total wall time
	// (0.25 = 25%). Zero disables timing comparison; counts are always
	// compared. Timing is also skipped when either side is a counts-only
	// baseline.
	TimingTol float64
	// MinTiming ignores timing drift on kinds whose total is below this on
	// both sides — relative tolerance is meaningless at microsecond scale.
	// Defaults to 5ms when zero and TimingTol is set.
	MinTiming time.Duration
	// IncludeWorkers compares "worker" span counts and timings too. Off by
	// default: worker fan-out follows GOMAXPROCS, so those spans are
	// machine-dependent while every other kind is deterministic.
	IncludeWorkers bool
}

// Diff compares two traces and returns human-readable differences, empty when
// they match within tolerance. Span counts are compared per kind (exact);
// timings per kind (relative, when enabled and both traces carry spans).
func Diff(a, b *Trace, opt DiffOptions) []string {
	var diffs []string
	kinds := make(map[string]bool, len(a.Counts)+len(b.Counts))
	for k := range a.Counts {
		kinds[k] = true
	}
	for k := range b.Counts {
		kinds[k] = true
	}
	var sorted []string
	for k := range kinds {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if k == obs.KWorker && !opt.IncludeWorkers {
			continue
		}
		if a.Counts[k] != b.Counts[k] {
			diffs = append(diffs, fmt.Sprintf("count %s: %d vs %d", k, a.Counts[k], b.Counts[k]))
		}
	}

	if opt.TimingTol <= 0 || a.CountsOnly || b.CountsOnly {
		return diffs
	}
	minT := opt.MinTiming
	if minT == 0 {
		minT = 5 * time.Millisecond
	}
	ar, br := a.KindReport(), b.KindReport()
	at := make(map[string]time.Duration, len(ar))
	for _, s := range ar {
		at[s.Kind] = s.Total
	}
	bt := make(map[string]time.Duration, len(br))
	for _, s := range br {
		bt[s.Kind] = s.Total
	}
	for _, k := range sorted {
		if k == obs.KWorker && !opt.IncludeWorkers {
			continue
		}
		x, y := at[k], bt[k]
		if x < minT && y < minT {
			continue
		}
		hi, lo := x, y
		if lo > hi {
			hi, lo = lo, hi
		}
		if lo <= 0 || float64(hi-lo)/float64(lo) > opt.TimingTol {
			diffs = append(diffs, fmt.Sprintf("timing %s: total %v vs %v (tol %.0f%%)",
				k, x, y, opt.TimingTol*100))
		}
	}
	return diffs
}
