// Package stats implements the statistics store S of the MDP state (§4.1):
// object counts c(expr) for materialized or hypothesized expressions, and
// distinct-value counts d(term, expr | partner) for UDF terms. The store
// distinguishes *measured* statistics (hardened by real execution, valid for
// every partner) from *assumed* statistics (sampled from a prior during MCTS
// simulation, valid only for the partner expression they were sampled
// against — the paper's d(F, r|s) notation).
package stats

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// RawKey returns the statistics key under which the *unfiltered* stored base
// table mounted at alias is counted. The plain alias key ("R") always denotes
// the RA expression over R with every applicable selection applied; the raw
// key ("raw:R") is the input size, which is assumed known up front (§4.1:
// "we assume that all input set sizes are available").
func RawKey(alias string) string { return "raw:" + alias }

// DKey identifies a measured distinct count: term ID over an expression.
type DKey struct {
	Term int
	Expr string
}

// CKey identifies an assumed (prior-sampled) distinct count, conditioned on
// the partner expression it would be joined with.
type CKey struct {
	Term    int
	Expr    string
	Partner string
}

// layer is one generation of a store's entries. A store writes only to its
// head layer; every layer below the head is frozen — nothing writes to it
// again — so any number of stores and goroutines read it unsynchronized. A
// lookup walks from the head down and the first layer holding the key wins.
type layer struct {
	parent   *layer
	counts   map[string]float64
	measured map[DKey]float64
	assumed  map[CKey]float64
	// sig memoises, on a frozen layer, the signature of the chain ending
	// here. Racing fillers store equal values. A live head can hold one only
	// while a RebaseLive overlay signs through it; its next write drops it.
	sig atomic.Pointer[sigMemo]
}

// sigMemo is a rendered signature: its sorted lines, comma-separated, and
// where each line ends in text.
type sigMemo struct {
	text string
	ends []int
}

// noSig is the signature of the empty chain.
var noSig sigMemo

func (l *layer) empty() bool {
	return len(l.counts) == 0 && len(l.measured) == 0 && len(l.assumed) == 0
}

func (l *layer) count(k string) (float64, bool) {
	for ; l != nil; l = l.parent {
		if v, ok := l.counts[k]; ok {
			return v, true
		}
	}
	return 0, false
}

func (l *layer) measuredAt(k DKey) (float64, bool) {
	for ; l != nil; l = l.parent {
		if v, ok := l.measured[k]; ok {
			return v, true
		}
	}
	return 0, false
}

func (l *layer) assumedAt(k CKey) (float64, bool) {
	for ; l != nil; l = l.parent {
		if v, ok := l.assumed[k]; ok {
			return v, true
		}
	}
	return 0, false
}

// flatInto fills the empty layer out with what a lookup can find in the
// chain ending at l — oldest layer first, so newer entries overwrite the ones
// they shadow; assumed entries only on request.
func (l *layer) flatInto(out *layer, withAssumed bool) {
	var buf [8]*layer // deeper chains spill to the heap
	chain := buf[:0]
	var counts, measured, assumed int
	for c := l; c != nil; c = c.parent {
		chain = append(chain, c)
		counts += len(c.counts)
		measured += len(c.measured)
		assumed += len(c.assumed)
	}
	out.counts = make(map[string]float64, counts)
	out.measured = make(map[DKey]float64, measured)
	if withAssumed {
		out.assumed = make(map[CKey]float64, assumed)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		for k, v := range chain[i].counts {
			out.counts[k] = v
		}
		for k, v := range chain[i].measured {
			out.measured[k] = v
		}
		if withAssumed {
			for k, v := range chain[i].assumed {
				out.assumed[k] = v
			}
		}
	}
}

// flattened returns the chain as one layer to range or count over: the head
// itself when nothing lies beneath it, a flat copy otherwise.
func (l *layer) flattened() *layer {
	if l.parent == nil {
		return l
	}
	var out layer
	l.flatInto(&out, true)
	return &out
}

// Store holds the statistics set S as a head layer of its own writes over a
// chain of frozen layers it may share with other stores.
//
// A store from New or Clone is safe for concurrent use: a daemon shares one
// seed store across sessions (each clones it, some merge hardened facts
// back), so every method takes its RWMutex. A store from Overlay belongs to
// the one goroutine that made it and never locks — which is what lets an
// MCTS search, whose every simulated world is an overlay, read statistics
// without touching a mutex: its reads end in frozen layers, and its writes
// stay in heads no other goroutine can see.
type Store struct {
	mu      sync.RWMutex
	overlay bool // owned by one goroutine: mu is never taken
	head    *layer
	first   layer // the head a store starts with, allocated with it
	// sig memoises BucketSignature until the next write; nil = not rendered.
	sig *sigMemo
}

// New creates an empty store.
func New() *Store {
	s := &Store{}
	s.head = &s.first
	return s
}

func (s *Store) rlock() {
	if !s.overlay {
		s.mu.RLock()
	}
}

func (s *Store) runlock() {
	if !s.overlay {
		s.mu.RUnlock()
	}
}

func (s *Store) lock() {
	if !s.overlay {
		s.mu.Lock()
	}
}

func (s *Store) unlock() {
	if !s.overlay {
		s.mu.Unlock()
	}
}

// Clone returns a deep, flat, independently locked copy.
func (s *Store) Clone() *Store {
	s.rlock()
	defer s.runlock()
	c := New()
	s.head.flatInto(c.head, true)
	return c
}

// Overlay returns a copy-on-write view: a store that reads what s holds at
// this moment and keeps its own writes to itself, at the cost of one small
// allocation instead of a copy of three maps. s stays writable too — what it
// held so far is frozen beneath both, and neither sees the other's later
// writes. The overlay is not safe for concurrent use; the simulator makes one
// per sampled world, each used by a single search shard.
func (s *Store) Overlay() *Store {
	o := New()
	o.overlay = true
	o.Rebase(s)
	return o
}

// Rebase empties the overlay o and lays it over what parent holds at this
// moment, exactly as parent.Overlay() would, but keeping o's maps: a caller
// that throws one overlay away per step reuses a single one instead.
func (o *Store) Rebase(parent *Store) {
	parent.lock()
	if !parent.head.empty() {
		if parent.sig != nil {
			parent.head.sig.Store(parent.sig)
		}
		parent.head = &layer{parent: parent.head}
	}
	base := parent.head.parent
	sig := parent.sig
	parent.unlock()
	o.lay(base)
	o.sig = sig
}

// RebaseLive empties the overlay o and lays it directly on the overlay
// parent's head, which stays live: nothing is frozen or allocated, and o reads
// what parent holds now — so o is valid only until parent is next written,
// and must be rebased before it is read again. The simulator prices a
// playout's candidate joins on one such overlay over the playout's world, in
// between two of the world's writes.
func (o *Store) RebaseLive(parent *Store) {
	if !parent.overlay {
		panic("stats: RebaseLive on a store other goroutines may write")
	}
	o.lay(parent.head)
	o.sig = nil
}

// lay empties o's head, keeping its maps, and puts it on top of base. o's
// head is never frozen: had o been overlaid while it held entries, those went
// to a frozen layer and o got a new head (a RebaseLive overlay on o is used
// up by this write, as by any other).
func (o *Store) lay(base *layer) {
	clear(o.head.counts)
	clear(o.head.measured)
	clear(o.head.assumed)
	o.head.parent = base
	o.head.sig.Store(nil)
}

// MergeFrom copies src's hardened facts — expression counts and measured
// distinct values — into s, overwriting on key collision. Assumed (prior-
// sampled) entries are deliberately not merged: they are only valid for the
// run that sampled them. The daemon's opt-in statistics write-back uses this
// to fold what one query learned into the shared seed store. src is snapshotted
// under its read lock before s takes its write lock, so no lock ordering
// between two stores is ever needed.
func (s *Store) MergeFrom(src *Store) {
	src.rlock()
	var facts layer
	src.head.flatInto(&facts, false)
	src.runlock()
	s.lock()
	w := s.write()
	for k, v := range facts.counts {
		w.setCount(k, v)
	}
	for k, v := range facts.measured {
		w.setMeasured(k, v)
	}
	s.unlock()
}

// write returns the head layer for a mutation, dropping the signature memos:
// the store's own and the one a RebaseLive overlay may have left on the head.
// The caller holds the write lock.
func (s *Store) write() *layer {
	s.sig = nil
	if s.head.sig.Load() != nil {
		s.head.sig.Store(nil)
	}
	return s.head
}

func (l *layer) setCount(k string, v float64) {
	if l.counts == nil {
		l.counts = make(map[string]float64)
	}
	l.counts[k] = v
}

func (l *layer) setMeasured(k DKey, v float64) {
	if l.measured == nil {
		l.measured = make(map[DKey]float64)
	}
	l.measured[k] = v
}

func (l *layer) setAssumed(k CKey, v float64) {
	if l.assumed == nil {
		l.assumed = make(map[CKey]float64)
	}
	l.assumed[k] = v
}

// SetCount records c(expr).
func (s *Store) SetCount(expr string, c float64) {
	s.lock()
	s.write().setCount(expr, c)
	s.unlock()
}

// Count looks up c(expr).
func (s *Store) Count(expr string) (float64, bool) {
	s.rlock()
	c, ok := s.head.count(expr)
	s.runlock()
	return c, ok
}

// SetMeasured records a hardened distinct count for (term, expr), valid for
// any partner.
func (s *Store) SetMeasured(term int, expr string, d float64) {
	s.lock()
	s.write().setMeasured(DKey{Term: term, Expr: expr}, d)
	s.unlock()
}

// Measured looks up a hardened distinct count.
func (s *Store) Measured(term int, expr string) (float64, bool) {
	s.rlock()
	d, ok := s.head.measuredAt(DKey{Term: term, Expr: expr})
	s.runlock()
	return d, ok
}

// SetAssumed records a prior-sampled distinct count for (term, expr) with
// respect to a partner expression.
func (s *Store) SetAssumed(term int, expr, partner string, d float64) {
	s.lock()
	s.write().setAssumed(CKey{Term: term, Expr: expr, Partner: partner}, d)
	s.unlock()
}

// Assumed looks up a prior-sampled distinct count for (term, expr) against
// exactly this partner. It does not consult measured values: a caller
// resolving d(term, expr | partner) looks those up first (cost.Deriver).
func (s *Store) Assumed(term int, expr, partner string) (float64, bool) {
	s.rlock()
	d, ok := s.head.assumedAt(CKey{Term: term, Expr: expr, Partner: partner})
	s.runlock()
	return d, ok
}

// HasMeasured reports whether a hardened distinct count exists for the term
// over the expression; Σ-usefulness checks rely on it.
func (s *Store) HasMeasured(term int, expr string) bool {
	_, ok := s.Measured(term, expr)
	return ok
}

// CountEntries reports how many expression cardinalities are known.
func (s *Store) CountEntries() int {
	s.rlock()
	defer s.runlock()
	return len(s.head.flattened().counts)
}

// MeasuredEntries reports how many hardened distinct counts are known.
func (s *Store) MeasuredEntries() int {
	s.rlock()
	defer s.runlock()
	return len(s.head.flattened().measured)
}

// AssumedEntries reports how many prior-sampled distinct counts are held.
func (s *Store) AssumedEntries() int {
	s.rlock()
	defer s.runlock()
	return len(s.head.flattened().assumed)
}

// DropAssumed clears every prior-sampled entry. The Monsoon driver calls it
// after each real EXECUTE so the next planning round starts from hardened
// facts only. Frozen layers cannot lose entries, so the store is flattened
// into a fresh head — which also keeps a session's chain from growing by a
// layer per round.
func (s *Store) DropAssumed() {
	s.lock()
	flat := &layer{}
	s.write().flatInto(flat, false)
	s.head = flat
	s.unlock()
}

// BucketSignature renders the store with every value bucketed by log2,
// deterministically ordered. MCTS uses it to key chance-node outcomes:
// sampled worlds with materially different statistics split into different
// subtrees, while near-identical ones (e.g. recurring spike-and-slab atoms)
// share one. Expression keys are quoted as %q would: they are comma-joined
// alias sets, so raw interpolation would let two materially different stores
// collide on the line and field delimiters (e.g. a key containing ",c:"
// splicing into a neighboring line) and wrongly merge distinct chance-node
// outcomes.
//
// The string is also the plan-cache key, so its bytes are pinned. It is
// remembered until the store is next written, and a layered store only
// renders its head's entries: the frozen chain below keeps its rendering.
func (s *Store) BucketSignature() string {
	s.lock() // fills the memo
	defer s.unlock()
	if s.sig == nil {
		s.sig = s.head.render()
	}
	return s.sig.text
}

// AppendBucketSignature appends BucketSignature's bytes to b. A signature not
// remembered already is rendered into b's spare capacity and not remembered:
// the search keys each sampled world once, into a buffer it reuses, and pays
// for a string only when the key names a new chance child.
func (s *Store) AppendBucketSignature(b []byte) []byte {
	s.rlock()
	defer s.runlock()
	if s.sig != nil {
		return append(b, s.sig.text...)
	}
	return s.head.appendSignature(b, nil)
}

// frozenSig is the signature of the chain ending at the frozen layer l,
// rendered once.
func (l *layer) frozenSig() *sigMemo {
	if l == nil {
		return &noSig
	}
	if m := l.sig.Load(); m != nil {
		return m
	}
	m := l.render()
	l.sig.Store(m)
	return m
}

// render renders the signature of the chain ending at l into a memo.
func (l *layer) render() *sigMemo {
	m := &sigMemo{}
	m.text = string(l.appendSignature(nil, &m.ends))
	return m
}

// span locates one rendered line in a buffer.
type span struct{ from, to int }

// appendSignature appends the signature of the chain ending at l to b: the
// lines of the chain below, minus those l shadows, merged in order with l's
// own. With ends non-nil, where each line ends (counted from the start of the
// signature) is appended to it. l's own lines and the lines they shadow are
// rendered past the end of b first and the merged signature is moved down
// over them, so b's spare capacity is all the scratch a rendering needs.
func (l *layer) appendSignature(b []byte, ends *[]int) []byte {
	start := len(b)
	var ownBuf, shadowedBuf [32]span // more lines spill to the heap
	own, shadowed := ownBuf[:0], shadowedBuf[:0]
	for k, v := range l.counts {
		from := len(b)
		b = countLine(b, k, v)
		own = append(own, span{from, len(b)})
		if old, ok := l.parent.count(k); ok {
			from = len(b)
			b = countLine(b, k, old)
			shadowed = append(shadowed, span{from, len(b)})
		}
	}
	for k, v := range l.measured {
		from := len(b)
		b = measuredLine(b, k, v)
		own = append(own, span{from, len(b)})
		if old, ok := l.parent.measuredAt(k); ok {
			from = len(b)
			b = measuredLine(b, k, old)
			shadowed = append(shadowed, span{from, len(b)})
		}
	}
	for k, v := range l.assumed {
		from := len(b)
		b = assumedLine(b, k, v)
		own = append(own, span{from, len(b)})
		if old, ok := l.parent.assumedAt(k); ok {
			from = len(b)
			b = assumedLine(b, k, old)
			shadowed = append(shadowed, span{from, len(b)})
		}
	}
	slices.SortFunc(own, func(x, y span) int { return bytes.Compare(b[x.from:x.to], b[y.from:y.to]) })

	out := len(b)
	base := l.parent.frozenSig()
	from := 0
	for _, end := range base.ends {
		line := base.text[from:end]
		from = end + 1
		if slices.ContainsFunc(shadowed, func(sp span) bool { return string(b[sp.from:sp.to]) == line }) {
			continue
		}
		for len(own) > 0 && string(b[own[0].from:own[0].to]) < line {
			b = appendLine(b, out, b[own[0].from:own[0].to], ends)
			own = own[1:]
		}
		b = appendLine(b, out, line, ends)
	}
	for _, sp := range own {
		b = appendLine(b, out, b[sp.from:sp.to], ends)
	}
	return append(b[:start], b[out:]...)
}

// appendLine appends one line to the signature that starts at out in b.
func appendLine[L string | []byte](b []byte, out int, line L, ends *[]int) []byte {
	if len(b) > out {
		b = append(b, ',')
	}
	b = append(b, line...)
	if ends != nil {
		*ends = append(*ends, len(b)-out)
	}
	return b
}

// The three line formats are fmt's "c:%q:%d", "m:%d:%q:%d" and
// "a:%d:%q:%q:%d" spelled with strconv.

func countLine(b []byte, k string, v float64) []byte {
	b = append(b, "c:"...)
	b = strconv.AppendQuote(b, k)
	return appendBucket(b, v)
}

func measuredLine(b []byte, k DKey, v float64) []byte {
	b = append(b, "m:"...)
	b = strconv.AppendInt(b, int64(k.Term), 10)
	b = append(b, ':')
	b = strconv.AppendQuote(b, k.Expr)
	return appendBucket(b, v)
}

func assumedLine(b []byte, k CKey, v float64) []byte {
	b = append(b, "a:"...)
	b = strconv.AppendInt(b, int64(k.Term), 10)
	b = append(b, ':')
	b = strconv.AppendQuote(b, k.Expr)
	b = append(b, ':')
	b = strconv.AppendQuote(b, k.Partner)
	return appendBucket(b, v)
}

func appendBucket(b []byte, v float64) []byte {
	b = append(b, ':')
	return strconv.AppendInt(b, int64(logBucket(v)), 10)
}

func logBucket(x float64) int {
	if x <= 0 {
		return -1
	}
	return int(math.Floor(math.Log2(x + 1)))
}

// String renders the store content deterministically (sorted) for debugging
// and golden tests.
func (s *Store) String() string {
	s.rlock()
	defer s.runlock()
	var lines []string
	flat := s.head.flattened()
	for k, v := range flat.counts {
		lines = append(lines, fmt.Sprintf("c(%s)=%.6g", k, v))
	}
	for k, v := range flat.measured {
		lines = append(lines, fmt.Sprintf("d[t%d](%s)=%.6g", k.Term, k.Expr, v))
	}
	for k, v := range flat.assumed {
		lines = append(lines, fmt.Sprintf("d~[t%d](%s|%s)=%.6g", k.Term, k.Expr, k.Partner, v))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
