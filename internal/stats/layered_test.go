package stats

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"monsoon/internal/query"
)

// DKey and CKey key the reference's distinct counts by text: a measured one
// by term and expression, an assumed one also by the partner expression it
// was sampled against.
type DKey struct {
	Term int
	Expr string
}

type CKey struct {
	Term    int
	Expr    string
	Partner string
}

// refStore is the flat three-map store the layered one replaced, kept here —
// deep clone, fmt-built signature and all — as the reference the replacement
// is pinned to.
type refStore struct {
	counts   map[string]float64
	measured map[DKey]float64
	assumed  map[CKey]float64
}

func newRef() *refStore {
	return &refStore{counts: map[string]float64{}, measured: map[DKey]float64{}, assumed: map[CKey]float64{}}
}

func (r *refStore) clone() *refStore {
	c := newRef()
	for k, v := range r.counts {
		c.counts[k] = v
	}
	for k, v := range r.measured {
		c.measured[k] = v
	}
	for k, v := range r.assumed {
		c.assumed[k] = v
	}
	return c
}

func (r *refStore) mergeFrom(src *refStore) {
	for k, v := range src.counts {
		r.counts[k] = v
	}
	for k, v := range src.measured {
		r.measured[k] = v
	}
}

func (r *refStore) signature() string {
	var lines []string
	for k, v := range r.counts {
		lines = append(lines, fmt.Sprintf("c:%q:%d", k, logBucket(v)))
	}
	for k, v := range r.measured {
		lines = append(lines, fmt.Sprintf("m:%d:%q:%d", k.Term, k.Expr, logBucket(v)))
	}
	for k, v := range r.assumed {
		lines = append(lines, fmt.Sprintf("a:%d:%q:%q:%d", k.Term, k.Expr, k.Partner, logBucket(v)))
	}
	sort.Strings(lines)
	return strings.Join(lines, ",")
}

func (r *refStore) String() string {
	var lines []string
	for k, v := range r.counts {
		lines = append(lines, fmt.Sprintf("c(%s)=%.6g", k, v))
	}
	for k, v := range r.measured {
		lines = append(lines, fmt.Sprintf("d[t%d](%s)=%.6g", k.Term, k.Expr, v))
	}
	for k, v := range r.assumed {
		lines = append(lines, fmt.Sprintf("d~[t%d](%s|%s)=%.6g", k.Term, k.Expr, k.Partner, v))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// The key space is tiny on purpose: layers shadow each other constantly, and
// the keys carry the characters the signature has to quote. An input size's
// RawKey keys only a count.
var (
	propExprs  = []string{"R", "S", "R+S", `q"uote`, "x,c:y"}
	propCounts = append([]string{"raw:R"}, propExprs...)
	propTerms  = []int{0, 1, 7}
)

func propValue(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return float64(rng.Intn(4))
	default:
		return float64(int64(1) << uint(rng.Intn(40)))
	}
}

// checkAgainst compares every observer of a store with the reference.
func checkAgainst(t *testing.T, label string, s *Store, r *refStore) {
	t.Helper()
	for _, e := range propCounts {
		gc, gok := s.Count(e)
		wc, wok := r.counts[e]
		if gc != wc || gok != wok {
			t.Fatalf("%s: Count(%q) = %v,%v want %v,%v", label, e, gc, gok, wc, wok)
		}
	}
	for _, e := range propExprs {
		for _, term := range propTerms {
			gm, gok := s.Measured(term, e)
			wm, wok := r.measured[DKey{term, e}]
			if gm != wm || gok != wok || s.HasMeasured(term, e) != wok {
				t.Fatalf("%s: Measured(%d,%q) = %v,%v want %v,%v", label, term, e, gm, gok, wm, wok)
			}
			for _, p := range propExprs {
				gd, gok := s.Assumed(term, e, p)
				wd, wok := r.assumed[CKey{term, e, p}]
				if gd != wd || gok != wok {
					t.Fatalf("%s: Assumed(%d,%q|%q) = %v,%v want %v,%v", label, term, e, p, gd, gok, wd, wok)
				}
			}
		}
	}
	if s.CountEntries() != len(r.counts) || s.MeasuredEntries() != len(r.measured) || s.AssumedEntries() != len(r.assumed) {
		t.Fatalf("%s: entries %d/%d/%d want %d/%d/%d", label,
			s.CountEntries(), s.MeasuredEntries(), s.AssumedEntries(), len(r.counts), len(r.measured), len(r.assumed))
	}
	// Appended before BucketSignature remembers it, so the rendering into a
	// caller's buffer is what is compared.
	if got, want := string(s.AppendBucketSignature([]byte("prefix|"))), "prefix|"+r.signature(); got != want {
		t.Fatalf("%s: AppendBucketSignature\n got %s\nwant %s", label, got, want)
	}
	if got, want := s.BucketSignature(), r.signature(); got != want {
		t.Fatalf("%s: BucketSignature\n got %s\nwant %s", label, got, want)
	}
	if got, want := s.String(), r.String(); got != want {
		t.Fatalf("%s: String\n got %s\nwant %s", label, got, want)
	}
}

// TestLayeredStoreMatchesDeepClone grows a family of stores by random
// writes, overlays, rebases, deep clones, merges and assumed-drops, mirroring
// each on a flat reference whose every fork is a deep copy, and after every
// step requires every store of the family — the one written and all its
// relatives above and below — to read exactly like its reference. That is
// the whole contract of the copy-on-write layers: indistinguishable from
// cloning, including measured-beats-assumed across layers and the signature
// byte for byte.
func TestLayeredStoreMatchesDeepClone(t *testing.T) {
	type pair struct {
		s       *Store
		r       *refStore
		overlay bool
	}
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Bound up front to every name the key space has, so no write
		// widens the universe and flattens a chain (TestWordStore does).
		first := New()
		first.Bind(query.NewAliasSet("R", "S", `q"uote`, "x,c:y"))
		family := []*pair{{s: first, r: newRef()}}
		pick := func() *pair { return family[rng.Intn(len(family))] }
		for step := 0; step < 80; step++ {
			p := pick()
			e, term := propExprs[rng.Intn(len(propExprs))], propTerms[rng.Intn(len(propTerms))]
			partner, v := propExprs[rng.Intn(len(propExprs))], propValue(rng)
			var op string
			switch rng.Intn(13) {
			case 0, 1, 2:
				op = "SetCount"
				c := propCounts[rng.Intn(len(propCounts))]
				p.s.SetCount(c, v)
				p.r.counts[c] = v
			case 3, 4:
				op = "SetMeasured"
				p.s.SetMeasured(term, e, v)
				p.r.measured[DKey{term, e}] = v
			case 5, 6:
				op = "SetAssumed"
				p.s.SetAssumed(term, e, partner, v)
				p.r.assumed[CKey{term, e, partner}] = v
			case 7, 8:
				op = "Overlay"
				if rng.Intn(2) == 0 {
					p.s.BucketSignature() // freeze a layer that already knows its lines
				}
				family = append(family, &pair{s: p.s.Overlay(), r: p.r.clone(), overlay: true})
			case 9:
				op = "Clone"
				family = append(family, &pair{s: p.s.Clone(), r: p.r.clone()})
			case 10:
				op = "MergeFrom"
				src := pick()
				if src == p {
					continue
				}
				p.s.MergeFrom(src.s)
				p.r.mergeFrom(src.r)
			case 11:
				if base := pick(); p.overlay && base != p && rng.Intn(2) == 0 {
					op = "Rebase"
					p.s.Rebase(base.s)
					p.r = base.r.clone()
				} else {
					op = "DropAssumed"
					p.s.DropAssumed()
					p.r.assumed = map[CKey]float64{}
				}
			case 12:
				// A live overlay reads the base's head as it is, so it is
				// checked, written and signed — leaving a memo on the live
				// head — and then used up by the base's next write. That write
				// must drop the memo before an overlay freezes the head.
				base := pick()
				if !p.overlay || !base.overlay || base == p {
					continue
				}
				op = "RebaseLive"
				p.s.RebaseLive(base.s)
				live := base.r.clone()
				checkAgainst(t, fmt.Sprintf("seed %d step %d live overlay", seed, step), p.s, live)
				p.s.SetCount(e, v)
				live.counts[e] = v
				p.s.SetAssumed(term, e, partner, v)
				live.assumed[CKey{term, e, partner}] = v
				checkAgainst(t, fmt.Sprintf("seed %d step %d live overlay written", seed, step), p.s, live)
				// A statistic no store holds yet: a term of its own.
				base.s.SetMeasured(100+step, "R", v)
				base.r.measured[DKey{100 + step, "R"}] = v
				family = append(family, &pair{s: base.s.Overlay(), r: base.r.clone(), overlay: true})
				p.s.Rebase(base.s)
				p.r = base.r.clone()
			}
			for i, m := range family {
				checkAgainst(t, fmt.Sprintf("seed %d step %d after %s, store %d of %d", seed, step, op, i, len(family)), m.s, m.r)
			}
		}
	}
}

// eight is a query-sized universe: the tests below key their statistics by
// its 255 non-empty subsets, whose texts subsetKeys builds up front.
var eight = query.NewAliasSet("a", "b", "c", "d", "e", "f", "g", "h")

func subsetKeys() []string {
	keys := make([]string, 256)
	for w := range keys {
		keys[w] = eight.Subset(uint64(w)).Key()
	}
	return keys
}

// TestOverlayAllocatesNoMaps is the point of the layers: forking a store for
// one sampled world costs one small object however many statistics it holds,
// and a rebased overlay costs none.
func TestOverlayAllocatesNoMaps(t *testing.T) {
	keys := subsetKeys()
	s := New()
	s.Bind(eight)
	for i := 0; i < 200; i++ {
		s.SetCount(keys[i+1], float64(i))
		s.SetMeasured(i, "a", float64(i))
	}
	mine, priced := keys[255], keys[254]
	s.Overlay() // freezes the head once; later overlays find it empty
	if n := testing.AllocsPerRun(100, func() { s.Overlay() }); n > 1 {
		t.Errorf("Overlay of a 400-entry store allocates %v objects, want ≤ 1", n)
	}
	o := s.Overlay()
	o.SetCount(mine, 1)
	if n := testing.AllocsPerRun(100, func() {
		o.Rebase(s)
		o.SetCount(mine, 1)
	}); n > 0 {
		t.Errorf("Rebase + one write on a warmed overlay allocates %v objects, want 0", n)
	}
	// A live overlay on a written overlay freezes nothing either.
	live := o.Overlay()
	if n := testing.AllocsPerRun(100, func() {
		o.SetCount(mine, 2)
		live.RebaseLive(o)
		live.SetCount(priced, 1)
	}); n > 0 {
		t.Errorf("RebaseLive + one write on a warmed overlay allocates %v objects, want 0", n)
	}
}

// TestAppendBucketSignatureAllocatesNothing: a sampled world's signature —
// its own lines merged into the rendered chain below — goes into the caller's
// buffer, with no string per line, once the buffer has grown.
func TestAppendBucketSignatureAllocatesNothing(t *testing.T) {
	keys := subsetKeys()
	s := New()
	s.Bind(eight)
	for i := 0; i < 50; i++ {
		s.SetCount(keys[i+1], float64(i))
		s.SetMeasured(i, "a", float64(i))
	}
	world := s.Overlay()
	for i := 0; i < 12; i++ {
		world.SetCount(keys[2*i+1], float64(1000+i)) // each shadows a line below
		world.SetAssumed(i, "a", "b", float64(i))
	}
	buf := world.AppendBucketSignature(nil)
	if string(buf) != world.BucketSignature() {
		t.Fatalf("appended signature %q, remembered %q", buf, world.BucketSignature())
	}
	world.SetCount(keys[1], 1) // forget the memo: every call below renders
	if n := testing.AllocsPerRun(100, func() { buf = world.AppendBucketSignature(buf[:0]) }); n > 0 {
		t.Errorf("AppendBucketSignature into a grown buffer allocates %v objects, want 0", n)
	}
}
