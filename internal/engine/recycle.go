// Buffer recycling. The engine's large buffers — join slabs, join tables,
// row-header buffers — come from process-wide free lists, and go back to them
// only through Exec.Release: the scope lists every such buffer its executions
// keep (held), and Release, called by whoever owns the scope once nothing
// reads its rows any more, gives them all back at once. A buffer the engine
// sees die earlier — an outgrown row-header buffer, the partial results of a
// failed tree — is left to the collector, as it always was.
//
// Every list is keyed by a buffer's exact length, the length the engine asks
// for whether or not anything was ever given back, so a process that never
// releases only ever misses: it allocates what it did before the lists
// existed, and holds no memory for them.
package engine

import (
	"sync"
	"unsafe"

	"monsoon/internal/table"
	"monsoon/internal/value"
)

// freeList recycles buffers of one element type by exact length: one
// sync.Pool per length, made when the first buffer of that length comes
// back. A take of a length nobody has given back is a plain make. The pools
// hold a buffer's first element, which boxes without allocating; the length
// is the key. A pool, once made, stays in the map; the collector empties it
// like any sync.Pool, so an unused length costs the map entry alone.
// Recycled buffers keep what they held: every taker writes an element before
// reading it, except the join table's slots, which have a list of their own
// that clears on the way back.
type freeList[T any] struct {
	clear bool
	pools sync.Map // int → *sync.Pool of *T
}

func (f *freeList[T]) take(n int) []T {
	if p, ok := f.pools.Load(n); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			return unsafe.Slice(v.(*T), n)
		}
	}
	return make([]T, n)
}

func (f *freeList[T]) put(s []T) {
	n := cap(s)
	if n == 0 {
		return
	}
	s = s[:n]
	if f.clear {
		clear(s)
	}
	p, ok := f.pools.Load(n)
	if !ok {
		p, _ = f.pools.LoadOrStore(n, new(sync.Pool))
	}
	p.(*sync.Pool).Put(unsafe.SliceData(s))
}

var (
	freeSlabs   freeList[value.Value]
	freeRows    freeList[table.Row]
	freeSlots   = freeList[int32]{clear: true}
	freeEntries freeList[entry]
	freeLinks   freeList[int32]
	freeFilters freeList[uint64]
)

// poisonReleased makes the engine overwrite a slab with poisonValue when it
// declares the slab's rows dead — at Release, and when a streaming join
// rewinds — so a row read after that reads as garbage instead of as a
// plausible stale row. Builds with the race detector set it
// (poison_race.go); engine tests set it around what they check.
var poisonReleased bool

var poisonValue = value.String("engine: row read after its lifetime")

func poison(slabs [][]value.Value) {
	if !poisonReleased {
		return
	}
	for _, s := range slabs {
		for i := range s {
			s[i] = poisonValue
		}
	}
}

// held lists the buffers a scope's executions keep until Release: the slabs
// their joined rows live in, the row-header buffers of their relations, build
// sides and batches, and their joins' tables. Only the coordinating goroutine
// appends to it; a join's worker states list their slabs themselves and hand
// them over when the join closes, so the kernels take no lock.
type held struct {
	slabs   [][]value.Value
	rows    [][]table.Row
	subs    []hashTable
	links   [][]int32
	filters [][]uint64
}

// keepRows lists a row-header buffer, unless it is empty.
func (h *held) keepRows(rows []table.Row) {
	if cap(rows) > 0 {
		h.rows = append(h.rows, rows)
	}
}

// keepTable lists a join table's buffers.
func (h *held) keepTable(t *shardedTable) {
	h.subs = append(h.subs, t.subs...)
	h.links = append(h.links, t.next)
	if t.filter != nil {
		h.filters = append(h.filters, t.filter)
	}
}

// mark is a copy of the lists as they stand; forget drops what was listed
// after a mark without giving it back, for the collector to take.
func (h *held) mark() held { return *h }

func (h *held) forget(m held) {
	h.slabs = truncate(h.slabs, len(m.slabs))
	h.rows = truncate(h.rows, len(m.rows))
	h.subs = truncate(h.subs, len(m.subs))
	h.links = truncate(h.links, len(m.links))
	h.filters = truncate(h.filters, len(m.filters))
}

func truncate[T any](s []T, n int) []T {
	clear(s[n:])
	return s[:n]
}

// release gives every listed buffer back to the free lists.
func (h *held) release() {
	poison(h.slabs)
	for _, s := range h.slabs {
		freeSlabs.put(s)
	}
	for _, r := range h.rows {
		freeRows.put(r)
	}
	for _, t := range h.subs {
		freeSlots.put(t.slots)
		freeEntries.put(t.entries)
	}
	for _, l := range h.links {
		freeLinks.put(l)
	}
	for _, f := range h.filters {
		freeFilters.put(f)
	}
	h.forget(held{})
}

// rewind makes a streaming join's state reuse its slabs: every slab but the
// one it is carving moves to spare, from which slot takes before it takes
// from the free list. The rows in them went to a consumer that copied what it
// read, so a streaming join holds one batch's slabs, not its whole output.
func (st *joinState) rewind() {
	if n := len(st.slabs) - 1; n > 0 {
		poison(st.slabs[:n])
		st.spare = append(st.spare, st.slabs[:n]...)
		st.slabs = append(st.slabs[:0], st.slabs[n])
	}
}

// growRows returns buf with room for extra more rows: buf itself, or a buffer
// from the free list as long as append would have made it, holding buf's
// rows. The outgrown buffer is left to the collector.
func growRows(buf []table.Row, extra int) []table.Row {
	n := len(buf) + extra
	if n <= cap(buf) {
		return buf
	}
	grown := freeRows.take(growCap(cap(buf), n))[:len(buf)]
	copy(grown, buf)
	return grown
}

// growCap is the capacity append gives a slice of capacity old that must
// hold need elements, before the allocator rounds it up to a size class:
// double while small, then a quarter more plus a constant, or need itself if
// that is more.
func growCap(old, need int) int {
	if need > 2*old {
		return need
	}
	if old < 256 {
		return 2 * old
	}
	for old < need {
		old += (old + 3*256) >> 2
	}
	return old
}
