package stats

import (
	"strings"
	"testing"
)

// Only tests call these string-keyed methods: the search path records and
// reads assumed counts by alias set (SetAssumedOf, AssumedOf).

// SetAssumed records a prior-sampled distinct count for (term, expr) with
// respect to a partner expression.
func (s *Store) SetAssumed(term int, expr, partner string, d float64) {
	s.lock()
	s.write().set(parseKey(s.u, kAssumed, term, expr, partner), d)
	s.unlock()
}

// Assumed looks up a prior-sampled distinct count for (term, expr) against
// exactly this partner. It does not consult measured values: a caller
// resolving d(term, expr | partner) looks those up first (cost.Deriver).
func (s *Store) Assumed(term int, expr, partner string) (float64, bool) {
	s.rlock()
	defer s.runlock()
	return s.head.get(parseKey(s.u, kAssumed, term, expr, partner))
}

// HasMeasured reports whether a hardened distinct count exists for the term
// over the expression.
func (s *Store) HasMeasured(term int, expr string) bool {
	_, ok := s.Measured(term, expr)
	return ok
}

// AssumedEntries reports how many prior-sampled distinct counts are held.
func (s *Store) AssumedEntries() int {
	s.rlock()
	defer s.runlock()
	_, _, n := s.head.flattened().entries()
	return n
}

func TestCounts(t *testing.T) {
	s := New()
	if _, ok := s.Count("R"); ok {
		t.Error("empty store should miss")
	}
	s.SetCount("R", 1e6)
	if c, ok := s.Count("R"); !ok || c != 1e6 {
		t.Errorf("Count = %v,%v", c, ok)
	}
	if s.CountEntries() != 1 {
		t.Error("CountEntries wrong")
	}
}

// TestAssumedPartnerSpecific pins the two lookups a distinct count resolves
// through: an assumed value answers only for the partner it was sampled
// against, and a measured value, which holds for every partner, neither hides
// it from Assumed nor answers for it — preferring measured is the cost
// deriver's rule (cost.TestDistinctResolutionPreference).
func TestAssumedPartnerSpecific(t *testing.T) {
	s := New()
	if _, ok := s.Assumed(0, "R", "S"); ok {
		t.Error("should miss initially")
	}
	s.SetAssumed(0, "R", "S", 100)
	if d, ok := s.Assumed(0, "R", "S"); !ok || d != 100 {
		t.Errorf("assumed lookup = %v,%v", d, ok)
	}
	if _, ok := s.Assumed(0, "R", "T"); ok {
		t.Error("assumed stat must not apply to other partners")
	}
	s.SetMeasured(0, "R", 777)
	if d, ok := s.Assumed(0, "R", "S"); !ok || d != 100 {
		t.Errorf("a measured value hid the assumed one: %v,%v", d, ok)
	}
	if _, ok := s.Assumed(0, "R", "T"); ok {
		t.Error("a measured value must not answer an assumed lookup")
	}
	if d, ok := s.Measured(0, "R"); !ok || d != 777 {
		t.Errorf("measured lookup = %v,%v", d, ok)
	}
	if !s.HasMeasured(0, "R") || s.HasMeasured(1, "R") || s.HasMeasured(0, "S") {
		t.Error("HasMeasured wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New()
	s.SetCount("R", 5)
	s.SetMeasured(0, "R", 2)
	s.SetAssumed(1, "R", "S", 3)
	c := s.Clone()
	c.SetCount("R", 99)
	c.SetMeasured(0, "R", 99)
	c.SetAssumed(1, "R", "S", 99)
	c.SetCount("NEW", 1)
	if v, _ := s.Count("R"); v != 5 {
		t.Error("clone mutated original count")
	}
	if v, _ := s.Measured(0, "R"); v != 2 {
		t.Error("clone mutated original measured")
	}
	if v, _ := s.Assumed(1, "R", "S"); v != 3 {
		t.Error("clone mutated original assumed")
	}
	if _, ok := s.Count("NEW"); ok {
		t.Error("clone additions leaked to original")
	}
}

func TestDropAssumed(t *testing.T) {
	s := New()
	s.SetAssumed(0, "R", "S", 10)
	s.SetMeasured(0, "R", 20)
	s.DropAssumed()
	if s.AssumedEntries() != 0 {
		t.Error("DropAssumed left entries")
	}
	if _, ok := s.Assumed(0, "R", "S"); ok {
		t.Error("DropAssumed left the assumed entry")
	}
	if d, ok := s.Measured(0, "R"); !ok || d != 20 {
		t.Error("measured entries must survive DropAssumed")
	}
}

func TestEntriesCounters(t *testing.T) {
	s := New()
	s.SetMeasured(0, "A", 1)
	s.SetMeasured(1, "A", 1)
	s.SetAssumed(0, "A", "B", 1)
	if s.MeasuredEntries() != 2 || s.AssumedEntries() != 1 {
		t.Errorf("entries = %d/%d", s.MeasuredEntries(), s.AssumedEntries())
	}
}

func TestBucketSignature(t *testing.T) {
	s := New()
	s.SetCount("R", 1000)
	s.SetMeasured(0, "R", 500)
	s.SetAssumed(1, "S", "R", 7)
	sig := s.BucketSignature()
	if sig != s.BucketSignature() {
		t.Error("signature must be deterministic")
	}
	// Values in the same log2 bucket share a signature...
	t1 := New()
	t1.SetCount("R", 1000)
	t2 := New()
	t2.SetCount("R", 900)
	if t1.BucketSignature() != t2.BucketSignature() {
		t.Error("values in one log2 bucket must share signatures")
	}
	// ...values in very different buckets split.
	t3 := New()
	t3.SetCount("R", 1e6)
	if t1.BucketSignature() == t3.BucketSignature() {
		t.Error("distant values must split signatures")
	}
	// Zero and negative magnitudes are representable.
	z := New()
	z.SetCount("E", 0)
	if z.BucketSignature() == "" || !strings.Contains(z.BucketSignature(), "-1") {
		t.Errorf("zero count signature wrong: %q", z.BucketSignature())
	}
}

func TestStringDeterministic(t *testing.T) {
	s := New()
	s.SetCount("R", 10)
	s.SetCount("S", 20)
	s.SetMeasured(0, "R", 5)
	s.SetAssumed(1, "S", "R", 7)
	a, b := s.String(), s.String()
	if a != b {
		t.Error("String must be deterministic")
	}
	for _, want := range []string{"c(R)=10", "c(S)=20", "d[t0](R)=5", "d~[t1](S|R)=7"} {
		if !strings.Contains(a, want) {
			t.Errorf("String missing %q in:\n%s", want, a)
		}
	}
}

// TestBucketSignatureDelimiterCollision pins the %q-quoting of expression
// keys. Keys are comma-joined alias sets, so under raw interpolation the
// two stores below rendered the identical signature "c:A:3,c:B:3" — one from
// two entries, the other from a single key containing the line and field
// delimiters — and MCTS wrongly merged materially different chance-node
// outcomes into one subtree.
func TestBucketSignatureDelimiterCollision(t *testing.T) {
	two := New()
	two.SetCount("A", 10)
	two.SetCount("B", 10)
	spliced := New()
	spliced.SetCount(`A":3,c:"B`, 10)
	if two.BucketSignature() == spliced.BucketSignature() {
		t.Errorf("delimiter-containing key collides:\n%q\n%q",
			two.BucketSignature(), spliced.BucketSignature())
	}
	// The historical raw-format collision, spelled out: the spliced key
	// embeds the exact bytes the old renderer used as structure.
	old := New()
	old.SetCount("A:3,c:B", 10)
	if two.BucketSignature() == old.BucketSignature() {
		t.Errorf("legacy collision pair still collides: %q", two.BucketSignature())
	}
	// Quoting keeps distinct measured/assumed keys distinct too.
	m1 := New()
	m1.SetMeasured(0, `R"S`, 100)
	m2 := New()
	m2.SetMeasured(0, `R\"S`, 100)
	if m1.BucketSignature() == m2.BucketSignature() {
		t.Error("escaped-quote keys collide in measured entries")
	}
	a1 := New()
	a1.SetAssumed(1, "R,S", "T", 50)
	a2 := New()
	a2.SetAssumed(1, "R", "S,T", 50)
	if a1.BucketSignature() == a2.BucketSignature() {
		t.Error("expr/partner boundary is ambiguous in assumed entries")
	}
}

// TestBucketSignatureCloneStable is a plan-cache key-soundness invariant:
// cloning a store — what every MCTS rollout and every estimate freeze does —
// must not perturb the signature, or cache keys computed before and after a
// planning pass would diverge on identical statistics.
func TestBucketSignatureCloneStable(t *testing.T) {
	s := New()
	s.SetCount("R", 1000)
	s.SetCount("R+S", 31)
	s.SetMeasured(0, "R", 500)
	s.SetMeasured(2, "R+S", 12)
	s.SetAssumed(1, "S", "R", 7)
	c := s.Clone()
	if s.BucketSignature() != c.BucketSignature() {
		t.Errorf("clone signature diverged:\n%q\n%q", s.BucketSignature(), c.BucketSignature())
	}
	// Mutating the clone afterwards must not leak back.
	c.SetCount("R", 1e6)
	if s.BucketSignature() == c.BucketSignature() {
		t.Error("mutated clone must split from the original")
	}
	if got := s.Clone().BucketSignature(); got != s.BucketSignature() {
		t.Errorf("original drifted after clone mutation: %q", got)
	}
}

// TestBucketSignatureHardeningBoundary pins the plan cache's invalidation
// mechanism: hardening a count across a log₂ bucket boundary changes the
// signature (so stale memoized plans become unreachable), while hardening
// within a bucket leaves it unchanged (so bucket-equivalent worlds keep
// sharing plans). Bucket edges sit at v+1 = 2^k: 1000 and 1023 land in
// buckets 9 and 10, while 600 shares bucket 9 with 1000.
func TestBucketSignatureHardeningBoundary(t *testing.T) {
	base := New()
	base.SetCount("R+S", 1000)
	within := New()
	within.SetCount("R+S", 600)
	if base.BucketSignature() != within.BucketSignature() {
		t.Errorf("within-bucket hardening must keep the key: %q vs %q",
			base.BucketSignature(), within.BucketSignature())
	}
	across := New()
	across.SetCount("R+S", 1023)
	if base.BucketSignature() == across.BucketSignature() {
		t.Error("hardening across a log2 boundary must change the key")
	}
	// The same holds for measured distinct counts, the other hardened kind.
	mBase, mWithin, mAcross := New(), New(), New()
	mBase.SetMeasured(3, "R+S", 1000)
	mWithin.SetMeasured(3, "R+S", 600)
	mAcross.SetMeasured(3, "R+S", 1023)
	if mBase.BucketSignature() != mWithin.BucketSignature() {
		t.Error("within-bucket measured hardening must keep the key")
	}
	if mBase.BucketSignature() == mAcross.BucketSignature() {
		t.Error("boundary-crossing measured hardening must change the key")
	}
	// Hardening a previously unknown statistic (new entry) always changes
	// the key: an unknown and a known-but-bucket-equal world are different
	// planning states.
	grown := New()
	grown.SetCount("R+S", 1000)
	grown.SetMeasured(3, "R+S", 8)
	if grown.BucketSignature() == base.BucketSignature() {
		t.Error("newly hardened entries must change the key")
	}
}
