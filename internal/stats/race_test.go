package stats

import (
	"fmt"
	"sync"
	"testing"
)

// TestStoreConcurrentAccess hammers one Store from many goroutines across
// every public method — writers, readers, cloners, overlays, signature
// renderers, and cross-store merges — so `go test -race` proves the locking
// covers the whole surface, and that an overlay's lock-free reads of the
// layers frozen beneath it never meet a write. The assertions are deliberately weak (no torn values, clones
// usable); the race detector is the real oracle.
func TestStoreConcurrentAccess(t *testing.T) {
	s := New()
	for i := 0; i < 8; i++ {
		s.SetCount(fmt.Sprintf("seed%d", i), float64(100+i))
	}

	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			other := New()
			other.SetCount(fmt.Sprintf("other%d", g), float64(g))
			other.SetMeasured(g, "m", float64(g))
			for i := 0; i < rounds; i++ {
				expr := fmt.Sprintf("e%d", i%16)
				switch i % 9 {
				case 0:
					s.SetCount(expr, float64(i))
				case 1:
					s.SetMeasured(g, expr, float64(i))
				case 2:
					s.SetAssumed(g, expr, "p", float64(i))
				case 3:
					if _, ok := s.Count("seed0"); !ok {
						t.Error("seed0 vanished")
						return
					}
					s.Measured(g, expr)
					s.Assumed(g, expr, "p")
					s.HasMeasured(g, expr)
				case 4:
					c := s.Clone()
					if c.CountEntries() < 8 {
						t.Errorf("clone lost seed counts: %d entries", c.CountEntries())
						return
					}
					// The clone is private: mutating it must be safe without
					// coordination even while the source is being written.
					c.SetCount("clone-local", 1)
				case 5:
					if len(s.AppendBucketSignature(nil)) == 0 {
						t.Error("empty appended signature from non-empty store")
						return
					}
					if sig := s.BucketSignature(); sig == "" {
						t.Error("empty signature from non-empty store")
						return
					}
					_ = s.String()
					s.CountEntries()
					s.MeasuredEntries()
					s.AssumedEntries()
				case 6:
					s.MergeFrom(other)
					other.MergeFrom(s) // reversed order: snapshotting precludes deadlock
				case 7:
					s.DropAssumed()
				case 8:
					// The overlay is this goroutine's own; what it reads
					// through is frozen, whatever the others do to s meanwhile.
					o := s.Overlay()
					o.SetCount("overlay-local", 1)
					if _, ok := o.Count("seed0"); !ok {
						t.Error("seed0 missing beneath an overlay")
						return
					}
					o.Assumed(g, expr, "p")
					if sig := o.BucketSignature(); sig == "" {
						t.Error("empty signature from an overlay of a non-empty store")
						return
					}
					if _, leaked := s.Count("overlay-local"); leaked {
						t.Error("overlay write reached the store beneath it")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	for i := 0; i < 8; i++ {
		want := float64(100 + i)
		if got, ok := s.Count(fmt.Sprintf("seed%d", i)); !ok || got != want {
			t.Errorf("seed%d = %v,%v after hammering, want %v,true", i, got, ok, want)
		}
	}
}

// TestMergeFromSemantics pins what MergeFrom moves: counts and measured
// distinct values cross stores, assumed (prior-sampled) entries never do.
func TestMergeFromSemantics(t *testing.T) {
	dst := New()
	dst.SetCount("keep", 1)
	dst.SetCount("clash", 2)

	src := New()
	src.SetCount("clash", 20)
	src.SetCount("new", 30)
	src.SetMeasured(1, "expr", 40)
	src.SetAssumed(1, "expr", "p", 50)

	dst.MergeFrom(src)

	if got, _ := dst.Count("keep"); got != 1 {
		t.Errorf("keep = %v, want untouched 1", got)
	}
	if got, _ := dst.Count("clash"); got != 20 {
		t.Errorf("clash = %v, want overwritten 20", got)
	}
	if got, _ := dst.Count("new"); got != 30 {
		t.Errorf("new = %v, want 30", got)
	}
	if got, ok := dst.Measured(1, "expr"); !ok || got != 40 {
		t.Errorf("measured = %v,%v, want 40,true", got, ok)
	}
	if dst.AssumedEntries() != 0 {
		t.Errorf("assumed entries leaked across MergeFrom: %d", dst.AssumedEntries())
	}
}
