package core

import (
	"fmt"
	"strings"
	"testing"

	"monsoon/internal/engine"
	"monsoon/internal/obs"
	"monsoon/internal/plancache"
	"monsoon/internal/prior"
)

// renderSpanTree renders the span forest as indented "kind name" lines,
// pruning the fan-out kind whose presence depends on the machine (KWorker)
// rather than on the plan. What remains is the plan-shaped operator skeleton
// that must not move when S changes.
func renderSpanTree(spans []*obs.Span) string {
	children := map[int][]*obs.Span{}
	byID := map[int]*obs.Span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	var b strings.Builder
	var walk func(sp *obs.Span, depth int)
	walk = func(sp *obs.Span, depth int) {
		if sp.Kind == obs.KWorker {
			return
		}
		fmt.Fprintf(&b, "%s%s %s\n", strings.Repeat("  ", depth), sp.Kind, sp.Name)
		for _, c := range children[sp.ID] {
			walk(c, depth+1)
		}
	}
	for _, sp := range spans {
		if _, ok := byID[sp.Parent]; !ok {
			walk(sp, 0)
		}
	}
	return b.String()
}

// TestShardedRunDeterminism is the session-level determinism golden. Two
// separate invariants, because the exchange-aware simulator is allowed (by
// design) to pick a different plan when the layout changes:
//
//   - Across shard counts the query's ANSWER is bit-identical: same final
//     row count and aggregate as the unsharded run, whatever plan the
//     exchange-priced search settles on.
//   - Within one shard count, the worker count perturbs NOTHING: rows,
//     aggregate, produced charge, the action trace, and the operator span
//     skeleton (pruned of the machine/layout-dependent KWorker fan-out
//     spans) are all byte-identical, and a repeated run reproduces itself
//     exactly.
func TestShardedRunDeterminism(t *testing.T) {
	type golden struct {
		rows     int
		value    float64
		produced float64
		trace    string
		spans    string
	}
	run := func(s, par int) golden {
		cat, q := fixture()
		cat.Shard(s)
		eng := engine.New(cat)
		col := &obs.Collector{}
		var lines []string
		res, err := Run(q, eng, &engine.Budget{}, Config{
			Seed: 7, Iterations: 300, Parallelism: par,
			Sink: obs.Multi(col, obs.MessageSink(func(l string) { lines = append(lines, l) })),
		})
		if err != nil {
			t.Fatalf("S=%d par=%d: %v", s, par, err)
		}
		return golden{res.Rows, res.Value, res.Produced,
			strings.Join(lines, "\n"), renderSpanTree(col.Spans)}
	}
	unsharded := run(1, 0)
	for _, s := range []int{1, 2, 4, 16} {
		ref := run(s, 0)
		if ref.rows != unsharded.rows || ref.value != unsharded.value {
			t.Errorf("S=%d: answer (%d rows, %v) != unsharded (%d rows, %v)",
				s, ref.rows, ref.value, unsharded.rows, unsharded.value)
		}
		for _, par := range []int{0, 1, 4} {
			got := run(s, par)
			if got != ref {
				t.Errorf("S=%d par=%d diverged from (S=%d, defaults):\n"+
					"rows/value/produced: %d/%v/%v vs %d/%v/%v\ntrace equal: %t, spans equal: %t",
					s, par, s,
					got.rows, got.value, got.produced, ref.rows, ref.value, ref.produced,
					got.trace == ref.trace, got.spans == ref.spans)
			}
		}
	}
}

// TestCanonicalShapeShardFingerprint pins satellite keying: an unsharded
// catalog (or none) keeps every pre-sharding cache key byte-identical, a
// sharded catalog appends the layout fingerprint, and only identical layouts
// share keys.
func TestCanonicalShapeShardFingerprint(t *testing.T) {
	_, q := fixture()
	cfg := Config{Seed: 7, Iterations: 300, Prior: prior.Default()}
	bare := canonicalShape(q, cfg, nil)
	if strings.Contains(bare, ";shards=") {
		t.Fatalf("nil catalog key carries a shard fingerprint: %q", bare)
	}
	cat1, _ := fixture()
	if got := canonicalShape(q, cfg, cat1); got != bare {
		t.Errorf("S=1 key %q != pre-sharding key %q", got, bare)
	}
	cat1.Shard(4)
	s4 := canonicalShape(q, cfg, cat1)
	if !strings.Contains(s4, ";shards=") || s4 == bare {
		t.Errorf("S=4 key must append a shard fingerprint: %q", s4)
	}
	cat2, _ := fixture()
	cat2.Shard(4)
	if got := canonicalShape(q, cfg, cat2); got != s4 {
		t.Errorf("identical layouts must share keys: %q vs %q", got, s4)
	}
	cat2.Shard(8)
	if got := canonicalShape(q, cfg, cat2); got == s4 {
		t.Error("different shard counts must not share keys")
	}
}

// TestShardedWarmCacheReplaysExactly: a warm plan cache keyed with the shard
// fingerprint must replay the cold sharded run's choices bit-identically.
func TestShardedWarmCacheReplaysExactly(t *testing.T) {
	cache := plancache.New(0)
	run := func() (float64, int, int, int) {
		cat, q := fixture()
		cat.Shard(4)
		eng := engine.New(cat)
		res, err := Run(q, eng, &engine.Budget{}, Config{
			Seed: 7, Iterations: 300, Cache: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Produced, res.Rows, res.CacheHits, res.CacheMisses
	}
	coldP, coldR, _, coldMiss := run()
	warmP, warmR, warmHits, _ := run()
	if coldMiss == 0 {
		t.Error("cold sharded run must miss the cache")
	}
	if warmHits == 0 {
		t.Error("warm sharded run must hit the shard-fingerprinted key")
	}
	if coldP != warmP || coldR != warmR {
		t.Errorf("warm sharded replay (%v, %d) != cold (%v, %d)", warmP, warmR, coldP, coldR)
	}
}
