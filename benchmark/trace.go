package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"monsoon/internal/obs"
)

// span is one timed region of the traced pass. The benchmark records spans
// around its own calls into each layer (nothing inside the program is
// touched); the spans the program already emits through its public obs sink
// are imported underneath them, so one tree shows where an operation's time
// went. Times are nanoseconds since the recorder's epoch.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part its children cover; filled
	// by settle.
	Self int64 `json:"self_ns"`

	rec *recorder
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced in-process pass runs the same code.
type recorder struct {
	epoch time.Time
	spans []*span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span under parent (nil for an operation's root).
func (r *recorder) start(op int, parent *span, layer, name string) *span {
	if r == nil {
		return nil
	}
	s := &span{Op: op, ID: len(r.spans) + 1, Layer: layer, Name: name, rec: r,
		Start: int64(time.Since(r.epoch))}
	if parent != nil {
		s.Parent = parent.ID
	}
	r.spans = append(r.spans, s)
	return s
}

func (s *span) end() {
	if s != nil {
		s.End = int64(time.Since(s.rec.epoch))
	}
}

// obsLayer names the module an obs span kind belongs to.
func obsLayer(kind string) string {
	switch kind {
	case obs.KPlan, obs.KPlanShard:
		return "mcts"
	case obs.KQuery, obs.KAction:
		return "core"
	}
	return "engine"
}

// importObs hangs one operation's obs spans under the benchmark's own spans.
// An obs span whose parent is the query root (or nothing) is attached to the
// phase span whose interval holds its start; every other span keeps its obs
// parent. The query root itself is dropped: the operation's root stands in.
func (r *recorder) importObs(op int, phases []*span, spans []*obs.Span) {
	if r == nil {
		return
	}
	sorted := append([]*obs.Span(nil), spans...)
	// Parents start before their children; completion order has them after.
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	byObsID := make(map[int]*span, len(sorted))
	queryRoot := 0
	for _, sp := range sorted {
		if sp.Kind == obs.KQuery {
			queryRoot = sp.ID
			continue
		}
		start := int64(sp.Start.Sub(r.epoch))
		var parent *span
		if sp.Parent != 0 && sp.Parent != queryRoot {
			parent = byObsID[sp.Parent]
		}
		if parent == nil {
			for _, ph := range phases {
				if ph.Start <= start && start <= ph.End {
					parent = ph
				}
			}
		}
		s := &span{Op: op, ID: len(r.spans) + 1, Layer: obsLayer(sp.Kind), Name: sp.Kind, rec: r,
			Start: start, End: start + int64(sp.Dur)}
		if parent != nil {
			s.Parent = parent.ID
		}
		r.spans = append(r.spans, s)
		byObsID[sp.ID] = s
	}
}

// settle fills every span's self time: its duration minus the part of that
// interval its children cover. Children may overlap (parallel workers) or
// stick out past the parent (clock skew between two timers); overlap is
// counted once and the excess is clipped, so self time is never negative.
func settle(spans []*span) {
	children := make(map[int][]*span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// exclusiveByLayer splits each operation's time among the layers: every
// instant goes to the layer of the innermost span open at that instant. Summing
// self times would not do: the engine's pipeline keeps sibling operator spans
// open at once (a scan stays open while the probe above it pulls), so their
// self times add up to more than the time that passed.
func exclusiveByLayer(spans []*span) map[string]int64 {
	byID := make(map[int]*span, len(spans))
	byOp := make(map[int][]*span)
	for _, s := range spans {
		byID[s.ID] = s
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	depth := func(s *span) int {
		d := 0
		for p := byID[s.Parent]; p != nil; p = byID[p.Parent] {
			d++
		}
		return d
	}
	out := make(map[string]int64)
	for _, op := range byOp {
		edges := make([]int64, 0, 2*len(op))
		depths := make([]int, len(op))
		for i, s := range op {
			edges = append(edges, s.Start, s.End)
			depths[i] = depth(s)
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
		for e := 0; e+1 < len(edges); e++ {
			lo, hi := edges[e], edges[e+1]
			if hi == lo {
				continue
			}
			inner := -1
			for i, s := range op {
				if s.Start <= lo && hi <= s.End && (inner < 0 || depths[i] > depths[inner] ||
					(depths[i] == depths[inner] && s.Start > op[inner].Start)) {
					inner = i
				}
			}
			if inner >= 0 {
				out[op[inner].Layer] += hi - lo
			}
		}
	}
	return out
}

// totalDuration sums the durations, in nanoseconds, of the spans with the
// given name.
func totalDuration(spans []*span, name string) float64 {
	total := 0.0
	for _, s := range spans {
		if s.Name == name {
			total += float64(s.End - s.Start)
		}
	}
	return total
}

// writeSpans writes one span per line.
func writeSpans(path string, spans []*span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
