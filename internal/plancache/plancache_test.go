package plancache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutAndStats(t *testing.T) {
	c := New(4)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache must miss")
	}
	c.Put("a", 1)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Errorf("Get(a) = %v, %v; want 1, true", v, ok)
	}
	c.Put("a", 2) // replace
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Errorf("replaced value = %v, want 2", v)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 1 || s.Evictions != 0 {
		t.Errorf("stats = %+v", s)
	}
	if got := s.HitRate(); got < 0.66 || got > 0.67 {
		t.Errorf("hit rate = %v, want 2/3", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	c.Get("k0") // refresh k0: k1 becomes the eviction candidate
	c.Put("k3", 3)
	if _, ok := c.Get("k1"); ok {
		t.Error("k1 must be evicted (least recently used)")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s must survive", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 3 {
		t.Errorf("stats = %+v, want 1 eviction / 3 entries", s)
	}
}

func TestDefaultCapacity(t *testing.T) {
	c := New(0)
	for i := 0; i < DefaultCapacity+10; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if c.Len() != DefaultCapacity {
		t.Errorf("len = %d, want %d", c.Len(), DefaultCapacity)
	}
}

// TestNilCacheIsOff: a nil cache misses silently and accepts writes as no-ops,
// so the driver threads an optional cache without guards.
func TestNilCacheIsOff(t *testing.T) {
	var c *Cache
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Error("nil cache must miss")
	}
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Error("nil cache must report zero state")
	}
	c.Reset()
	if Stats.HitRate(Stats{}) != 0 {
		t.Error("zero-lookup hit rate must be 0")
	}
}

func TestReset(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	c.Get("a")
	c.Get("b")
	c.Reset()
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("post-reset stats = %+v", s)
	}
	if _, ok := c.Get("a"); ok {
		t.Error("reset must drop entries")
	}
}

// TestConcurrentAccess exercises the cache from many goroutines; run under
// -race this is the thread-safety gate for campaign-shared caches.
func TestConcurrentAccess(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%100)
				if i%3 == 0 {
					c.Put(k, i)
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("len %d exceeds capacity", c.Len())
	}
}
