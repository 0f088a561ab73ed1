// Cost calibration: converting "objects produced" (§4.4's unit) into
// per-operator-kind seconds learned from the telemetry the engine already
// emits. A CostProfile holds one seconds-per-object rate per physical
// operator kind; a Calibrator folds recorded spans — from a JSONL trace
// corpus, an obs.Collector, or the daemon's TraceRing span trees — into
// running per-kind (seconds, objects) sums and renders them as a profile.
//
// The uncalibrated model stays the deterministic default: a Deriver's nil
// Profile is the unit profile, which prices exactly the flat §4.4 object
// counts, so every golden (results, trace lines, span baseline) is
// bit-identical until a profile is explicitly loaded.
//
// One honesty note on the input data: streaming operator spans measure
// open-to-close wall time, and a pull-based pipeline keeps its scan and probe
// spans open while downstream operators drain, so those windows overlap.
// Build, Σ, and reuse spans are tightly bounded (the work completes inside
// the span); scan/probe/nested-loop rates are upper bounds biased by pipeline
// co-residency. The bias is shared by every operator of a pipeline, so the
// rates remain comparable across kinds — which is all the planner consumes
// them for (relative operator weights replacing one global constant).
package cost

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"time"

	"monsoon/internal/obs"
)

// Rate is one operator kind's calibrated conversion factor plus the evidence
// it was learned from.
type Rate struct {
	// SecondsPerObject converts the cost model's object count for this
	// operator kind into estimated seconds.
	SecondsPerObject float64 `json:"seconds_per_object"`
	// Seconds and Objects are the folded totals the rate is the quotient of.
	Seconds float64 `json:"seconds"`
	Objects float64 `json:"objects"`
	// Spans counts the spans folded into this kind.
	Spans int `json:"spans"`
}

// of prices objects at the rate. A zero rate contributes exactly 0, never
// 0 × +Inf = NaN: a wide cross product can overflow a count, and a profile
// written before sharding carries a zero Exchange rate.
func (r Rate) of(objects float64) float64 {
	if r.SecondsPerObject == 0 {
		return 0
	}
	return r.SecondsPerObject * objects
}

// CostProfile maps every physical operator kind the engine executes to a
// calibrated seconds-per-object rate. Kinds never observed in the corpus
// carry the mean rate over the observed kinds (so costs stay finite and
// comparable); a profile with no observed kinds at all is rejected by the
// calibrator.
type CostProfile struct {
	Scan        Rate `json:"scan"`
	Reuse       Rate `json:"reuse"`
	HashBuild   Rate `json:"hash_build"`
	HashProbe   Rate `json:"hash_probe"`
	NestedLoop  Rate `json:"nested_loop"`
	Sigma       Rate `json:"sigma"`
	Materialize Rate `json:"materialize"`
	// Exchange prices one row moved across shard boundaries by a reshuffled
	// hash build. No span kind measures exchanges directly (routing happens
	// inside the build), so the calibrator falls back to the hash-build rate
	// when unobserved; profile JSONs written before sharding deserialize to a
	// zero rate, making movement free until recalibrated.
	Exchange Rate `json:"exchange"`
}

// unitProfile is what a Deriver with a nil Profile prices with: every object
// a scan, reuse, probe, nested loop, Σ pass or exchange produces counts 1,
// and a build or the root materialization adds nothing — the flat §4.4
// object count.
var unitProfile = &CostProfile{
	Scan: Rate{SecondsPerObject: 1}, Reuse: Rate{SecondsPerObject: 1},
	HashProbe: Rate{SecondsPerObject: 1}, NestedLoop: Rate{SecondsPerObject: 1},
	Sigma: Rate{SecondsPerObject: 1}, Exchange: Rate{SecondsPerObject: 1},
}

// profileKinds orders the profile's fields for deterministic rendering; the
// accessor returns pointers into p so callers can fold or read uniformly.
func (p *CostProfile) kinds() []struct {
	Kind string
	R    *Rate
} {
	return []struct {
		Kind string
		R    *Rate
	}{
		{obs.KScan, &p.Scan}, {obs.KReuse, &p.Reuse},
		{obs.KHashBuild, &p.HashBuild}, {obs.KHashProbe, &p.HashProbe},
		{obs.KNestedLoop, &p.NestedLoop}, {obs.KSigma, &p.Sigma},
		{obs.KMaterialize, &p.Materialize}, {"exchange", &p.Exchange},
	}
}

// Fingerprint hashes the profile's rates into a short stable token. The plan
// cache embeds it in the key prefix: two sessions plan-share only when they
// cost plans with the same calibration (a nil profile keeps the historical
// key shape, so calibrated-off cache entries are untouched).
func (p *CostProfile) Fingerprint() string {
	if p == nil {
		return ""
	}
	h := fnv.New64a()
	for _, k := range p.kinds() {
		fmt.Fprintf(h, "%s=%.17g;", k.Kind, k.R.SecondsPerObject)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteJSON renders the profile as indented JSON.
func (p *CostProfile) WriteJSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// LoadProfile reads a profile JSON file (the output of `monsoon-trace
// calibrate` or CostProfile.WriteJSON).
func LoadProfile(path string) (*CostProfile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cost: read profile: %w", err)
	}
	p := &CostProfile{}
	if err := json.Unmarshal(b, p); err != nil {
		return nil, fmt.Errorf("cost: parse profile %s: %w", path, err)
	}
	for _, k := range p.kinds() {
		if k.R.SecondsPerObject < 0 {
			return nil, fmt.Errorf("cost: profile %s: negative rate for %s", path, k.Kind)
		}
	}
	return p, nil
}

// Calibrator folds operator spans into running per-kind (seconds, objects)
// sums. Fold spans from any source — tracefile corpora, an obs.Collector's
// flat slice, or SpanNode trees — then call Profile. Not safe for concurrent
// use; guard shared calibrators (the daemon does) externally.
type Calibrator struct {
	acc map[string]*Rate
	// childDur accumulates, per (trace id, parent span id), the summed child
	// durations — the KMaterialize span wraps its whole tree, so its own rate
	// uses self time (Dur minus children) instead of the inclusive window.
	childDur map[[2]int64]time.Duration
	// mats holds the materialize spans until Profile, when self time can be
	// settled against the complete childDur map.
	mats []*obs.Span
}

// NewCalibrator returns an empty calibrator.
func NewCalibrator() *Calibrator {
	return &Calibrator{acc: map[string]*Rate{}, childDur: map[[2]int64]time.Duration{}}
}

// objectsOf maps a span to the §4.4 object count its duration is charged
// against, mirroring how each operator reports rows: scans, reuses, probes,
// and nested loops produce RowsOut; hash builds insert RowsOut build rows;
// Σ re-scans RowsIn materialized rows; materialize emits RowsOut result rows.
func objectsOf(sp *obs.Span) (float64, bool) {
	switch sp.Kind {
	case obs.KScan, obs.KReuse, obs.KHashProbe, obs.KNestedLoop, obs.KHashBuild, obs.KMaterialize:
		return float64(sp.RowsOut), true
	case obs.KSigma:
		return float64(sp.RowsIn), true
	}
	return 0, false
}

// AddSpan folds one recorded span. Non-operator kinds (plan, action, worker,
// join umbrellas) are ignored.
func (c *Calibrator) AddSpan(sp *obs.Span) {
	if sp == nil {
		return
	}
	if sp.Parent != 0 {
		c.childDur[[2]int64{sp.Trace, int64(sp.Parent)}] += sp.Dur
	}
	obj, ok := objectsOf(sp)
	if !ok {
		return
	}
	if sp.Kind == obs.KMaterialize {
		c.mats = append(c.mats, sp)
		return
	}
	c.fold(sp.Kind, sp.Dur, obj)
}

// AddSpans folds a flat span slice (a Collector's or a trace file's).
func (c *Calibrator) AddSpans(spans []*obs.Span) {
	for _, sp := range spans {
		c.AddSpan(sp)
	}
}

// AddTree folds every span of a span tree (the daemon's TraceRing shape).
func (c *Calibrator) AddTree(root *obs.SpanNode) {
	if root == nil {
		return
	}
	root.Walk(func(n *obs.SpanNode, _ int) { c.AddSpan(n.Span) })
}

func (c *Calibrator) fold(kind string, d time.Duration, objects float64) {
	r := c.acc[kind]
	if r == nil {
		r = &Rate{}
		c.acc[kind] = r
	}
	r.Seconds += d.Seconds()
	r.Objects += objects
	r.Spans++
}

// Profile renders the folded evidence as a CostProfile. Kinds with no
// observed objects carry the mean observed rate. Returns an error when the
// corpus held no operator spans with objects at all — an empty profile would
// silently cost every plan at zero.
func (c *Calibrator) Profile() (*CostProfile, error) {
	// Settle materialize self time now that every child duration is folded.
	for _, sp := range c.mats {
		self := sp.Dur - c.childDur[[2]int64{sp.Trace, int64(sp.ID)}]
		if self < 0 {
			self = 0
		}
		obj, _ := objectsOf(sp)
		c.fold(obs.KMaterialize, self, obj)
	}
	c.mats = nil

	p := &CostProfile{}
	var sum float64
	var n int
	for _, k := range p.kinds() {
		if r, ok := c.acc[k.Kind]; ok {
			*k.R = *r
			if r.Objects > 0 {
				k.R.SecondsPerObject = r.Seconds / r.Objects
				sum += k.R.SecondsPerObject
				n++
			}
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("cost: calibrate: no operator spans with objects in corpus")
	}
	mean := sum / float64(n)
	for _, k := range p.kinds() {
		if k.R.Objects == 0 {
			k.R.SecondsPerObject = mean
		}
	}
	// Exchanges are never directly observed (no span kind covers them): a
	// reshuffle routes rows inside the hash build, so its per-row cost tracks
	// the build's. Prefer that over the all-kinds mean.
	if p.Exchange.Objects == 0 && p.HashBuild.SecondsPerObject > 0 {
		p.Exchange.SecondsPerObject = p.HashBuild.SecondsPerObject
	}
	return p, nil
}

// Table renders the per-kind rates as aligned text rows (the calibration
// study and `monsoon-trace calibrate -v` share it).
func (p *CostProfile) Table() string {
	rows := p.kinds()
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Kind < rows[j].Kind })
	out := fmt.Sprintf("%-14s %-14s %-12s %-12s %-8s\n", "kind", "sec/object", "seconds", "objects", "spans")
	for _, k := range rows {
		out += fmt.Sprintf("%-14s %-14.3g %-12.4g %-12.4g %-8d\n",
			k.Kind, k.R.SecondsPerObject, k.R.Seconds, k.R.Objects, k.R.Spans)
	}
	return out
}
