// Buffer recycling. The engine's large buffers — join slabs, join tables,
// row-header buffers — come from process-wide free lists, and go back to them
// only through Exec.Release: the scope lists every such buffer its executions
// keep (held), and Release, called by whoever owns the scope once nothing
// reads its rows any more, gives them all back at once. A buffer the engine
// sees die earlier — an outgrown row-header buffer, the partial results of a
// failed tree — is left to the collector, as it always was.
//
// A list files buffers by power-of-two size class, so a buffer one query gives
// back serves any query that asks for a length of its class, not only another
// run of the same query: the lists hold buffers the whole mix shares, not a
// working set per query. A list that was never given a buffer — every list of
// a process that never releases — allocates exactly the length asked for, so
// such a process allocates what it did before the lists existed and holds no
// memory for them.
package engine

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"monsoon/internal/table"
	"monsoon/internal/value"
)

// freeList recycles buffers of one element type by size class: class c holds
// buffers of capacity 2^c up to 2^(c+1)-1, in a sync.Pool of its own, one of a
// fixed array. put files a buffer under ⌊log₂ cap⌋; take(n) draws from class
// ⌈log₂ n⌉, where every buffer has room for n, and hands it out resliced to n
// with the class's capacity 2^c, so it goes back to the class it came from. A
// take that misses allocates that full 2^c too, so the new buffer can join the
// class — once the list has been given any buffer; before that a take looks
// at no pool and allocates exactly n. The pools hold a buffer's first
// element, which boxes without allocating; the class gives the capacity. The
// collector empties the pools like any sync.Pool, and an unused class costs
// its empty pool alone.
// Recycled buffers keep what they held: every taker writes an element before
// reading it, except the join table's slots, which have a list of their own
// that clears on the way back. Every take counts as a hit or a miss.
type freeList[T any] struct {
	name         string
	clear        bool
	given        atomic.Bool
	classes      [bits.UintSize]sync.Pool // class c: *T with room for 2^c
	hits, misses atomic.Uint64
}

func (f *freeList[T]) take(n int) []T {
	if n > 0 && f.given.Load() {
		c := bits.Len(uint(n - 1))
		if v := f.classes[c].Get(); v != nil {
			f.hits.Add(1)
			return unsafe.Slice(v.(*T), 1<<c)[:n]
		}
		f.misses.Add(1)
		return make([]T, n, 1<<c)
	}
	f.misses.Add(1)
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
	if !f.given.Load() {
		f.given.Store(true)
	}
	f.classes[bits.Len(uint(n))-1].Put(unsafe.SliceData(s))
}

var (
	freeSlabs   = freeList[value.Value]{name: "slabs"}
	freeRows    = freeList[table.Row]{name: "rows"}
	freeSlots   = freeList[int32]{name: "slots", clear: true}
	freeEntries = freeList[entry]{name: "entries"}
	freeLinks   = freeList[int32]{name: "links"}
	freeFilters = freeList[uint64]{name: "filters"}
)

// FreeListCount is one free list's takes since the process started: those a
// released buffer served, and those that allocated.
type FreeListCount struct {
	List         string
	Hits, Misses uint64
}

// FreeListCounts reads every free list's counts, in a fixed order.
func FreeListCounts() []FreeListCount {
	return []FreeListCount{freeSlabs.count(), freeRows.count(), freeSlots.count(),
		freeEntries.count(), freeLinks.count(), freeFilters.count()}
}

func (f *freeList[T]) count() FreeListCount {
	return FreeListCount{List: f.name, Hits: f.hits.Load(), Misses: f.misses.Load()}
}

// poisonReleased makes the engine overwrite a slab with poisonValue when it
// declares the slab's rows dead — at Release, and when a streaming join
// rewinds — and, at Release, point every row header at a row of poisonValue,
// so a row read after that reads as garbage instead of as a plausible stale
// row. The headers need it because a released header buffer goes on to
// queries of any shape: a stale header read would see another query's live
// rows. Builds with the race detector set it (poison_race.go); engine tests
// set it around what they check.
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

// poisonHeaders points every row header in bufs at a row of poisonValue as
// wide as the row it pointed at.
func poisonHeaders(bufs [][]table.Row) {
	if !poisonReleased {
		return
	}
	w := 0
	for _, rows := range bufs {
		for _, r := range rows {
			w = max(w, len(r))
		}
	}
	dead := make(table.Row, w)
	for i := range dead {
		dead[i] = poisonValue
	}
	for _, rows := range bufs {
		for i, r := range rows {
			rows[i] = dead[:len(r):len(r)]
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
	tables  []hashTable
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
func (h *held) keepTable(t *joinTable) {
	h.tables = append(h.tables, t.hashTable)
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
	h.tables = truncate(h.tables, len(m.tables))
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
	poisonHeaders(h.rows)
	for _, s := range h.slabs {
		freeSlabs.put(s)
	}
	for _, r := range h.rows {
		freeRows.put(r)
	}
	for _, t := range h.tables {
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
