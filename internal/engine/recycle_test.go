package engine

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// TestFreeListClasses pins the size-class rule of the free lists. The
// collector is off, so no pool is emptied under the test, and one P runs it,
// so a put and the take after it meet in the same per-P pool slot. Under the
// race detector sync.Pool drops puts at random, so a hit is awaited over a
// few put-take rounds rather than expected from the first.
func TestFreeListClasses(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// A list never given a buffer allocates exactly what is asked for.
	var f freeList[int64]
	for _, n := range []int{1, 3, 100, 128} {
		if b := f.take(n); len(b) != n || cap(b) != n {
			t.Fatalf("never-given take(%d): len %d cap %d, want both %d", n, len(b), cap(b), n)
		}
	}

	// Once given any buffer, a miss allocates its class's full capacity, so
	// the buffer goes back to the class a second take of the same
	// non-power-of-two length draws from.
	f.put(make([]int64, 8))
	a := f.take(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("take(100) after a put: len %d cap %d, want 100 and 128", len(a), cap(a))
	}
	if h, m := f.hits.Load(), f.misses.Load(); h != 0 || m != 5 {
		t.Fatalf("five takes that allocated counted %d hits and %d misses, want 0 and 5", h, m)
	}
	a, ok := reuses(&f, a, 100)
	if !ok {
		t.Fatalf("a second take(100) never found the buffer the first gave back")
	}

	// Two lengths of one class share one buffer, each handed out at its own
	// length with the class's capacity.
	for _, n := range []int{65, 128, 97} {
		if a, ok = reuses(&f, a, n); !ok || len(a) != n || cap(a) != 128 {
			t.Fatalf("take(%d) of class 7: reused %v, len %d cap %d, want the class's buffer at len %d cap 128", n, ok, len(a), cap(a), n)
		}
	}
	if h := f.hits.Load(); h < 4 {
		t.Errorf("four takes that found a buffer counted %d hits", h)
	}

	// The slots list clears a buffer's whole capacity on the way back, so a
	// shorter take of the class reads zeros even where the longer one wrote.
	slots := freeList[int32]{clear: true}
	b := slots.take(16)
	for range 32 {
		for i := range b[:cap(b)] {
			b[:cap(b)][i] = 7
		}
		slots.put(b)
		got := slots.take(9)
		if unsafe.SliceData(got) != unsafe.SliceData(b) {
			b = got
			continue
		}
		for i, v := range got[:cap(got)] {
			if v != 0 {
				t.Fatalf("recycled slot %d reads %d, want 0", i, v)
			}
		}
		return
	}
	t.Fatalf("take(9) never found the 16-slot buffer given back")
}

// reuses gives buf back and takes n, until the take returns buf's memory.
func reuses(f *freeList[int64], buf []int64, n int) ([]int64, bool) {
	for range 32 {
		f.put(buf)
		got := f.take(n)
		if unsafe.SliceData(got) == unsafe.SliceData(buf) {
			return got, true
		}
		buf = got
	}
	return nil, false
}
