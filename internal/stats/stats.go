// Package stats implements the statistics store S of the MDP state (§4.1):
// object counts c(expr) for materialized or hypothesized expressions, and
// distinct-value counts d(term, expr | partner) for UDF terms. The store
// distinguishes *measured* statistics (hardened by real execution, valid for
// every partner) from *assumed* statistics (sampled from a prior during MCTS
// simulation, valid only for the partner expression they were sampled
// against — the paper's d(F, r|s) notation).
//
// Expressions are alias sets, and a store keys every entry by the sets'
// membership words over its universe, which names every alias any entry
// names. A store starts with an empty universe; a write that names an alias
// the universe lacks widens it first, and so do Bind and MergeFrom. A store
// bound to a query's universe (Bind) is keyed by the very words the planner
// looks statistics up by. The string methods are the boundary: they parse a
// text as the alias set it is the Key of, or as the RawKey of one alias,
// into the same words, and store nothing by text.
//
// A store holds statistics over at most query.MaxAliases aliases, the most
// one universe can name. Each store is one query's or one query shape's, and
// a query mounts at most that many relations, so this always holds.
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

	"monsoon/internal/query"
)

// rawPrefix marks an input-size key; see RawKey.
const rawPrefix = "raw:"

// RawKey returns the statistics key under which the *unfiltered* stored base
// table mounted at alias is counted. The plain alias key ("R") always denotes
// the RA expression over R with every applicable selection applied; the raw
// key ("raw:R") is the input size, which is assumed known up front (§4.1:
// "we assume that all input set sizes are available").
func RawKey(alias string) string { return rawPrefix + alias }

// layer is one generation of a store's entries. A store writes only to its
// head layer; every layer below the head is frozen — nothing writes to it
// again — so any number of stores and goroutines read it unsynchronized. A
// lookup walks from the head down and the first layer holding the key wins.
// Every layer of a chain is keyed by words over universes with the same names.
type layer struct {
	parent *layer
	// words holds every entry: counts, input sizes, measured and assumed
	// distinct counts alike.
	words table
	// sig memoises, on a frozen layer, the signature of the chain ending
	// here. Racing fillers store equal values. A live head can hold one only
	// while a RebaseLive overlay signs through it; its next write drops it.
	sig atomic.Pointer[sigMemo]
}

// Statistic kinds, which are also their signature line tags.
const (
	kCount    byte = 'c' // c(expr)
	kRaw      byte = 'r' // an input size, expr holding the alias's bit
	kMeasured byte = 'm'
	kAssumed  byte = 'a'
)

// sigMemo is a rendered signature: its sorted lines, comma-separated, and
// where each line ends in text.
type sigMemo struct {
	text string
	ends []int
}

// noSig is the signature of the empty chain.
var noSig sigMemo

func (l *layer) empty() bool { return l.words.n == 0 }

// at looks a word key up in the chain ending at l.
func (l *layer) at(w wkey) (float64, bool) {
	h := w.hash()
	for ; l != nil; l = l.parent {
		if v, ok := l.words.get(w, h); ok {
			return v, true
		}
	}
	return 0, false
}

// each calls fn on every entry l itself holds, assumed ones only on request.
func (l *layer) each(withAssumed bool, fn func(k wkey, v float64)) {
	for _, s := range l.words.slots {
		if s.k.tag != 0 && (withAssumed || s.k.kind() != kAssumed) {
			fn(s.k, s.v)
		}
	}
}

// flatInto fills the empty layer out with what a lookup can find in the
// chain ending at l — oldest layer first, so newer entries overwrite the ones
// they shadow; assumed entries only on request.
func (l *layer) flatInto(out *layer, withAssumed bool) {
	var buf [8]*layer // deeper chains spill to the heap
	chain := buf[:0]
	n := 0
	for c := l; c != nil; c = c.parent {
		chain = append(chain, c)
		n += c.words.n
	}
	if n > 0 {
		out.words.resize(n)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		for _, s := range chain[i].words.slots {
			if s.k.tag != 0 && (withAssumed || s.k.kind() != kAssumed) {
				out.words.set(s.k, s.v)
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

// entries counts the statistics of each kind l itself holds, input sizes
// among the counts.
func (l *layer) entries() (counts, measured, assumed int) {
	l.each(true, func(k wkey, _ float64) {
		switch k.kind() {
		case kCount, kRaw:
			counts++
		case kMeasured:
			measured++
		default:
			assumed++
		}
	})
	return
}

// Texts. Each word key has exactly one text — the Key of its alias sets, or
// the RawKey of its alias — and the string methods parse only those, so
// reading a text never merges or splits keys.

// parse reads the text of a count (kind kCount) or of a distinct count's
// expression or partner as the alias set it names over s.u, and the kind its
// statistic is keyed under: kRaw for a count's RawKey. named is false when
// s.u lacks one of the text's aliases. Any other text panics, as does a term
// ID checkTerm refuses: a Key is non-empty names joined by '+' in sorted
// order without repeats, and a RawKey names one alias and keys only a count.
func (s *Store) parse(kind byte, term int, text string) (k byte, e query.AliasSet, named bool) {
	checkTerm(term)
	if name, raw := strings.CutPrefix(text, rawPrefix); raw {
		if kind != kCount || name == "" || strings.Contains(name, "+") {
			panic(fmt.Sprintf("stats: %q is not the RawKey of one alias keying a count", text))
		}
		kind, text = kRaw, name
	}
	names := s.u.Names()
	var w uint64
	named = true
	for rest, prev := text, ""; rest != ""; {
		name, next, more := strings.Cut(rest, "+")
		if name == "" || name <= prev || more && next == "" {
			panic(fmt.Sprintf("stats: %q is not the Key of an alias set", text))
		}
		if i, ok := slices.BinarySearch(names, name); ok {
			w |= 1 << uint(i)
		} else {
			named = false
		}
		rest, prev = next, name
	}
	return kind, s.u.Subset(w), named
}

// checkTerm panics on a term ID that does not fit a word key's tag.
func checkTerm(t int) {
	if t < 0 || t >= 1<<32 {
		panic(fmt.Sprintf("stats: term ID %d does not fit a statistics key", t))
	}
}

// texts renders k's expression and partner by name over u.
func texts(u query.AliasSet, k wkey) (expr, partner string) {
	if k.kind() == kRaw {
		return RawKey(u.Subset(k.expr).Key()), ""
	}
	return u.Subset(k.expr).Key(), u.Subset(k.partner).Key()
}

// sameNames reports whether words over u and over v name the same aliases.
func sameNames(u, v query.AliasSet) bool { return u == v || u.Equal(v) }

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
	// u is the alias universe the chain's words are over, held as the set of
	// all its aliases: it names every alias any entry names. Empty in a new
	// store, it only widens — by a write naming an alias it lacks, by Bind or
	// by MergeFrom — and once bound it is a query's full set.
	u     query.AliasSet
	head  *layer
	first layer // the head a store starts with, allocated with it
	// sig memoises BucketSignature until the next write; nil = not rendered.
	sig *sigMemo
}

// New creates an empty store over the empty universe.
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

// Bind keys the store by words over the universe of u, a query's full alias
// set, so its lookups by the query's sets compare words. It widens the store
// as a write does: when u's universe names every alias of the store's it is
// adopted, so a store cloned from another query of the same shape only swaps
// the pointer, and a store written before binding is re-keyed once. Binding
// changes no lookup, signature or count; an empty u is ignored.
func (s *Store) Bind(u query.AliasSet) {
	s.rlock()
	bound := s.u == u
	s.runlock()
	if bound || u.IsEmpty() {
		return
	}
	s.lock()
	s.widen(u)
	s.unlock()
}

// widen makes s.u name every alias of x. A universe of x's that names every
// alias of s.u is adopted — in place when it names no other, by re-keying the
// store otherwise — so a store bound to, written by or merged from one query
// is keyed over that query's universe. Otherwise s.u gains x's aliases in a
// universe of its own. The caller holds the write lock.
func (s *Store) widen(x query.AliasSet) {
	to := x.Universe()
	switch {
	case sameNames(s.u, to):
		s.u = to
		return
	case !s.u.SubsetOf(to):
		if x.SubsetOf(s.u) {
			return
		}
		to = query.NewAliasSet(append(slices.Clone(s.u.Names()), x.Names()...)...)
	}
	var flat layer
	s.head.flatInto(&flat, true)
	head := &layer{}
	flat.each(true, func(k wkey, v float64) {
		k.expr, _ = to.WordOf(s.u.Subset(k.expr))
		k.partner, _ = to.WordOf(s.u.Subset(k.partner))
		head.words.set(k, v)
	})
	s.u, s.head = to, head
}

// Clone returns a deep, flat, independently locked copy, bound like s.
func (s *Store) Clone() *Store {
	s.rlock()
	defer s.runlock()
	c := New()
	c.u = s.u
	s.head.flatInto(c.head, true)
	return c
}

// Overlay returns a copy-on-write view: a store that reads what s holds at
// this moment and keeps its own writes to itself, at the cost of one small
// allocation instead of a copy of every entry. s stays writable too — what it
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
// moment, exactly as parent.Overlay() would, but keeping o's arrays: a caller
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
	sig, u := parent.sig, parent.u
	parent.unlock()
	o.lay(base, u)
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
	o.lay(parent.head, parent.u)
	o.sig = nil
}

// lay empties o's head, keeping its arrays, and puts it on top of base, whose
// words are over u. o's head is never frozen: had o been overlaid while it
// held entries, those went to a frozen layer and o got a new head (a
// RebaseLive overlay on o is used up by this write, as by any other).
func (o *Store) lay(base *layer, u query.AliasSet) {
	h := o.head
	h.words.reset()
	h.parent = base
	h.sig.Store(nil)
	o.u = u
}

// MergeFrom copies src's hardened facts — expression counts and measured
// distinct values — into s, overwriting on key collision. Assumed (prior-
// sampled) entries are deliberately not merged: they are only valid for the
// run that sampled them. The daemon's opt-in statistics write-back uses this
// to fold what one query learned into its shape's seed store. src is
// snapshotted under its read lock before s takes its write lock, so no lock
// ordering between two stores is ever needed. s widens to src's universe as
// Bind would, and facts keyed over another universe are translated by name.
func (s *Store) MergeFrom(src *Store) {
	src.rlock()
	var facts layer
	src.head.flatInto(&facts, false)
	from := src.u
	src.runlock()
	s.lock()
	s.widen(from)
	w := s.write()
	same := sameNames(from, s.u)
	facts.each(false, func(k wkey, v float64) {
		if !same {
			k.expr, _ = s.u.WordOf(from.Subset(k.expr))
		}
		w.words.set(k, v)
	})
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

// The string methods are the store's boundary: each parses its text into
// the alias set it names and goes the way of the alias-set methods below. A
// text over the store's universe is parsed without allocating.

// SetCount records c(expr); expr is an alias-set Key or a RawKey.
func (s *Store) SetCount(expr string, c float64) {
	s.lock()
	s.putText(kCount, 0, expr, c)
	s.unlock()
}

// Count looks up c(expr).
func (s *Store) Count(expr string) (float64, bool) {
	s.rlock()
	defer s.runlock()
	return s.findText(kCount, 0, expr)
}

// SetMeasured records a hardened distinct count for (term, expr), valid for
// any partner.
func (s *Store) SetMeasured(term int, expr string, d float64) {
	s.lock()
	s.putText(kMeasured, term, expr, d)
	s.unlock()
}

// Measured looks up a hardened distinct count.
func (s *Store) Measured(term int, expr string) (float64, bool) {
	s.rlock()
	defer s.runlock()
	return s.findText(kMeasured, term, expr)
}

// findText looks up a statistic given by text; one naming an alias outside
// s.u is missing. The caller holds a lock.
func (s *Store) findText(kind byte, term int, text string) (float64, bool) {
	kind, e, named := s.parse(kind, term, text)
	if !named {
		return 0, false
	}
	return s.find(kind, term, e, query.AliasSet{})
}

// putText records a statistic given by text, widening s.u first when the
// text names an alias it lacks. The caller holds the write lock.
func (s *Store) putText(kind byte, term int, text string, v float64) {
	k, e, named := s.parse(kind, term, text)
	if !named {
		s.widen(query.NewAliasSet(strings.Split(strings.TrimPrefix(text, rawPrefix), "+")...))
		k, e, _ = s.parse(kind, term, text)
	}
	s.put(k, term, e, query.AliasSet{}, v)
}

// The alias-set methods are the search path's: a set of the universe the
// store is bound to is its word, with no string built or hashed. A set from
// another universe is translated by name; a lookup of one naming an alias
// outside the store's universe misses, and a write of one widens it.

// CountOf looks up c(e).
func (s *Store) CountOf(e query.AliasSet) (float64, bool) {
	return s.lookup(kCount, 0, e, query.AliasSet{})
}

// SetCountOf records c(e).
func (s *Store) SetCountOf(e query.AliasSet, c float64) {
	s.record(kCount, 0, e, query.AliasSet{}, c)
}

// RawCountOf looks up the input size of the one alias in a: the count
// Count(RawKey(alias)) reads.
func (s *Store) RawCountOf(a query.AliasSet) (float64, bool) {
	return s.lookup(kRaw, 0, a, query.AliasSet{})
}

// MeasuredOf looks up a hardened distinct count for (term, e).
func (s *Store) MeasuredOf(term int, e query.AliasSet) (float64, bool) {
	return s.lookup(kMeasured, term, e, query.AliasSet{})
}

// HasMeasuredOf reports whether a hardened distinct count exists for the term
// over e; Σ-usefulness checks rely on it.
func (s *Store) HasMeasuredOf(term int, e query.AliasSet) bool {
	_, ok := s.MeasuredOf(term, e)
	return ok
}

// SetMeasuredOf records a hardened distinct count for (term, e).
func (s *Store) SetMeasuredOf(term int, e query.AliasSet, d float64) {
	s.record(kMeasured, term, e, query.AliasSet{}, d)
}

// AssumedOf looks up a prior-sampled distinct count for (term, e) against
// exactly the partner p. It does not consult measured values: a caller
// resolving d(term, e | p) looks those up first (cost.Deriver).
func (s *Store) AssumedOf(term int, e, p query.AliasSet) (float64, bool) {
	return s.lookup(kAssumed, term, e, p)
}

// SetAssumedOf records a prior-sampled distinct count for (term, e) with
// respect to the partner p.
func (s *Store) SetAssumedOf(term int, e, p query.AliasSet, d float64) {
	s.record(kAssumed, term, e, p, d)
}

func (s *Store) lookup(kind byte, term int, e, p query.AliasSet) (float64, bool) {
	if !s.overlay { // rlock, spelled out: the search's lookups are all on overlays
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	return s.find(kind, term, e, p)
}

func (s *Store) record(kind byte, term int, e, p query.AliasSet, v float64) {
	if !s.overlay {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	s.put(kind, term, e, p, v)
}

// find looks a statistic up by its alias sets. The caller holds a lock.
func (s *Store) find(kind byte, term int, e, p query.AliasSet) (float64, bool) {
	if w, ok := s.word(kind, term, e, p); ok {
		return s.head.at(w)
	}
	return 0, false
}

// put records a statistic by its alias sets, widening s.u first when it
// lacks one of their aliases. The caller holds the write lock.
func (s *Store) put(kind byte, term int, e, p query.AliasSet, v float64) {
	w, ok := s.word(kind, term, e, p)
	if !ok {
		s.widen(e.Union(p))
		w, _ = s.word(kind, term, e, p)
	}
	s.write().words.set(w, v)
}

// word keys a statistic over alias sets (p is the partner of an assumed
// count) by their words over the store's universe; false when the universe
// cannot name every member, or an input size's set is not one alias. A term
// ID that does not fit the key panics.
func (s *Store) word(kind byte, term int, e, p query.AliasSet) (wkey, bool) {
	checkTerm(term)
	w, ok := s.u.WordOf(e)
	if !ok {
		return wkey{}, false
	}
	var pw uint64
	switch kind {
	case kAssumed:
		if pw, ok = s.u.WordOf(p); !ok {
			return wkey{}, false
		}
	case kRaw:
		if w == 0 || w&(w-1) != 0 {
			return wkey{}, false
		}
	}
	return wkey{tagOf(kind, term), w, pw}, true
}

// CountEntries reports how many expression cardinalities are known, input
// sizes included.
func (s *Store) CountEntries() int {
	s.rlock()
	defer s.runlock()
	n, _, _ := s.head.flattened().entries()
	return n
}

// MeasuredEntries reports how many hardened distinct counts are known.
func (s *Store) MeasuredEntries() int {
	s.rlock()
	defer s.runlock()
	_, n, _ := s.head.flattened().entries()
	return n
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
// The string is also the plan-cache key, so its bytes are pinned: word keys
// render by name, exactly as the texts they parse from. It is remembered
// until the store is next written, and a layered store only renders its
// head's entries: the frozen chain below keeps its rendering.
func (s *Store) BucketSignature() string {
	s.lock() // fills the memo
	defer s.unlock()
	if s.sig == nil {
		s.sig = s.head.render(s.u)
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
	return s.head.appendSignature(s.u, b, nil)
}

// frozenSig is the signature of the chain ending at the frozen layer l,
// rendered once.
func (l *layer) frozenSig(u query.AliasSet) *sigMemo {
	if l == nil {
		return &noSig
	}
	if m := l.sig.Load(); m != nil {
		return m
	}
	m := l.render(u)
	l.sig.Store(m)
	return m
}

// render renders the signature of the chain ending at l into a memo.
func (l *layer) render(u query.AliasSet) *sigMemo {
	m := &sigMemo{}
	m.text = string(l.appendSignature(u, nil, &m.ends))
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
func (l *layer) appendSignature(u query.AliasSet, b []byte, ends *[]int) []byte {
	start := len(b)
	var ownBuf, shadowedBuf [32]span // more lines spill to the heap
	own, shadowed := ownBuf[:0], shadowedBuf[:0]
	l.each(true, func(k wkey, v float64) {
		from := len(b)
		b = sigLine(b, u, k, v)
		own = append(own, span{from, len(b)})
		if old, ok := l.parent.at(k); ok {
			from = len(b)
			b = sigLine(b, u, k, old)
			shadowed = append(shadowed, span{from, len(b)})
		}
	})
	slices.SortFunc(own, func(x, y span) int { return bytes.Compare(b[x.from:x.to], b[y.from:y.to]) })

	out := len(b)
	base := l.parent.frozenSig(u)
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

// sigLine appends one signature line: fmt's "c:%q:%d", "m:%d:%q:%d" or
// "a:%d:%q:%q:%d" of the entry's texts and log2 bucket, spelled with strconv.
// An input size renders as the count of its RawKey.
func sigLine(b []byte, u query.AliasSet, k wkey, v float64) []byte {
	tag := k.kind()
	if tag == kRaw {
		tag = kCount
	}
	b = append(b, tag, ':')
	if tag != kCount {
		b = strconv.AppendInt(b, int64(k.term()), 10)
		b = append(b, ':')
	}
	b = appendExpr(b, u, k.kind() == kRaw, k.expr)
	if tag == kAssumed {
		b = append(b, ':')
		b = appendExpr(b, u, false, k.partner)
	}
	b = append(b, ':')
	return strconv.AppendInt(b, int64(logBucket(v)), 10)
}

// appendExpr appends the Key of the word w over u quoted — under "raw:" for
// an input size, whose quoting is that of RawKey's text because the prefix
// needs no escape.
func appendExpr(b []byte, u query.AliasSet, raw bool, w uint64) []byte {
	at := len(b) + 1 // past the opening quote
	b = strconv.AppendQuote(b, u.Subset(w).Key())
	if raw {
		b = append(b, rawPrefix...)
		copy(b[at+len(rawPrefix):], b[at:len(b)-len(rawPrefix)])
		copy(b[at:], rawPrefix)
	}
	return b
}

func logBucket(x float64) int {
	if x <= 0 {
		return -1
	}
	return int(math.Floor(math.Log2(x + 1)))
}

// Entry is one statistic by text, as Entries lists it.
type Entry struct {
	// Kind is 'c' for a count (an input size under its RawKey), 'm' for a
	// measured and 'a' for an assumed distinct count.
	Kind byte
	// Term is the term ID of a distinct count.
	Term int
	// Expr is the expression's key; Partner the partner's, of an assumed count.
	Expr, Partner string
	Value         float64
}

// Entries lists every statistic a lookup can find, by text, in no particular
// order.
func (s *Store) Entries() []Entry {
	s.rlock()
	defer s.runlock()
	var out []Entry
	s.head.flattened().each(true, func(k wkey, v float64) {
		expr, partner := texts(s.u, k)
		kind := k.kind()
		if kind == kRaw {
			kind = kCount
		}
		out = append(out, Entry{Kind: kind, Term: k.term(), Expr: expr, Partner: partner, Value: v})
	})
	return out
}

// String renders the store content deterministically (sorted) for debugging
// and golden tests.
func (s *Store) String() string {
	var lines []string
	for _, e := range s.Entries() {
		switch e.Kind {
		case kCount:
			lines = append(lines, fmt.Sprintf("c(%s)=%.6g", e.Expr, e.Value))
		case kMeasured:
			lines = append(lines, fmt.Sprintf("d[t%d](%s)=%.6g", e.Term, e.Expr, e.Value))
		default:
			lines = append(lines, fmt.Sprintf("d~[t%d](%s|%s)=%.6g", e.Term, e.Expr, e.Partner, e.Value))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
