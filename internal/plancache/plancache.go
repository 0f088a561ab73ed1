// Package plancache is the cross-round, cross-session plan memo of the
// Monsoon serving path: an LRU map from a canonical planning-state key —
// query shape, materialized frontier, and the hardened statistics set
// rendered through stats.Store.BucketSignature() — to the action MCTS
// picked in that state.
//
// The cache stores opaque values so it stays dependency-free (core stores
// its picked Action; tests store strings). Invalidation is embedded
// in the key: hardening that moves any statistic across a log₂ bucket
// boundary changes the bucket signature and therefore the key, so entries
// recorded under the old statistics can never be served to the new state —
// they simply age out of the LRU. Entries are only reused by states whose
// statistics genuinely land in the same buckets, which is the reuse the
// Monsoon MDP's chance-node bucketing (§5.1) already treats as equivalent.
//
// The cache is safe for concurrent use; hit/miss/eviction counts are
// available through Stats for metrics export.
package plancache

import (
	"container/list"
	"sync"
)

// DefaultCapacity bounds a cache created with New(0).
const DefaultCapacity = 512

// Stats is a point-in-time snapshot of the cache's accounting.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
	// Entries is the current size.
	Entries int
}

// HitRate reports Hits/(Hits+Misses), 0 when no lookups happened.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	key string
	val any
}

// Cache is a mutex-guarded LRU memo. The zero value is not usable; construct
// with New. A nil *Cache is the off switch: Get always misses without
// accounting, Put is a no-op, so callers thread an optional cache without
// guards.
type Cache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List               // front = most recently used
	entries map[string]*list.Element // key → element whose Value is *entry

	hits, misses, evictions int64
}

// New creates a cache bounded to capacity entries; capacity <= 0 selects
// DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{cap: capacity, ll: list.New(), entries: make(map[string]*list.Element)}
}

// Get returns the value memoized under key and marks it most recently used.
// Nil-safe (always a silent miss).
func (c *Cache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put memoizes val under key, replacing any previous value and evicting the
// least recently used entry when over capacity. Nil-safe (no-op).
func (c *Cache) Put(key string, val any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&entry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.evictions++
	}
}

// Len reports the current number of entries. Nil-safe (zero).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the accounting. Nil-safe (zero value).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.ll.Len()}
}

// PublishGauges feeds the cache's current entry and eviction counts to set
// while still holding the cache mutex, so concurrent publishers serialize and
// the last write always reflects the newest cache state. (Snapshotting with
// Stats and then setting gauges outside the lock lets a stale snapshot land
// last.) Nil-safe (no-op).
func (c *Cache) PublishGauges(set func(entries, evictions float64)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	set(float64(c.ll.Len()), float64(c.evictions))
}

// Reset drops every entry and zeroes the accounting. Nil-safe (no-op).
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.entries = make(map[string]*list.Element)
	c.hits, c.misses, c.evictions = 0, 0, 0
}
