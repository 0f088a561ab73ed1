// Package stats implements the statistics store S of the MDP state (§4.1):
// object counts c(expr) for materialized or hypothesized expressions, and
// distinct-value counts d(term, expr | partner) for UDF terms. The store
// distinguishes *measured* statistics (hardened by real execution, valid for
// every partner) from *assumed* statistics (sampled from a prior during MCTS
// simulation, valid only for the partner expression they were sampled
// against — the paper's d(F, r|s) notation).
//
// Expressions are alias sets. A store bound to a query's universe (Bind)
// keys its entries by the sets' membership words, which is what the planner
// looks statistics up by; the string methods are the boundary, and translate
// a key by name into the same word-keyed entries.
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

// DKey identifies a measured distinct count by text: term ID over an
// expression the store's universe cannot name.
type DKey struct {
	Term int
	Expr string
}

// CKey identifies an assumed (prior-sampled) distinct count by text,
// conditioned on the partner expression it would be joined with.
type CKey struct {
	Term    int
	Expr    string
	Partner string
}

// layer is one generation of a store's entries. A store writes only to its
// head layer; every layer below the head is frozen — nothing writes to it
// again — so any number of stores and goroutines read it unsynchronized. A
// lookup walks from the head down and the first layer holding the key wins.
// Every layer of a chain is keyed by words over universes with the same names.
type layer struct {
	parent *layer
	// words holds every entry keyed by words: counts, input sizes, measured
	// and assumed distinct counts alike.
	words table
	// text holds the entries whose keys the universe cannot name: all of an
	// unbound store's, and then those naming an alias outside the query.
	text *textLayer
	// sig memoises, on a frozen layer, the signature of the chain ending
	// here. Racing fillers store equal values. A live head can hold one only
	// while a RebaseLive overlay signs through it; its next write drops it.
	sig atomic.Pointer[sigMemo]
}

// textLayer is a layer's text-keyed part.
type textLayer struct {
	counts   map[string]float64
	measured map[DKey]float64
	assumed  map[CKey]float64
}

func (tx *textLayer) empty() bool {
	return tx == nil || len(tx.counts)+len(tx.measured)+len(tx.assumed) == 0
}

// Statistic kinds, which are also their signature line tags.
const (
	kCount    byte = 'c' // c(expr); with text set, also an input size by its RawKey
	kRaw      byte = 'r' // an input size, expr holding the alias's bit
	kMeasured byte = 'm'
	kAssumed  byte = 'a'
)

// key names one statistic of any kind: by words over the store's universe,
// or — with text set — by the strings of a key the universe cannot name.
type key struct {
	kind            byte
	text            bool
	term            int
	expr, partner   uint64
	sexpr, spartner string
}

func (k key) word() wkey { return wkey{tagOf(k.kind, k.term), k.expr, k.partner} }

func (w wkey) key() key {
	return key{kind: w.kind(), term: int(w.tag >> 8), expr: w.expr, partner: w.partner}
}

// sigMemo is a rendered signature: its sorted lines, comma-separated, and
// where each line ends in text.
type sigMemo struct {
	text string
	ends []int
}

// noSig is the signature of the empty chain.
var noSig sigMemo

func (l *layer) empty() bool { return l.words.n == 0 && l.text.empty() }

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

func (l *layer) textAt(k key) (float64, bool) {
	for ; l != nil; l = l.parent {
		if l.text == nil {
			continue
		}
		var v float64
		var ok bool
		switch k.kind {
		case kCount:
			v, ok = l.text.counts[k.sexpr]
		case kMeasured:
			v, ok = l.text.measured[DKey{k.term, k.sexpr}]
		default:
			v, ok = l.text.assumed[CKey{k.term, k.sexpr, k.spartner}]
		}
		if ok {
			return v, true
		}
	}
	return 0, false
}

// get looks a statistic of any kind up in the chain ending at l.
func (l *layer) get(k key) (float64, bool) {
	if k.text {
		return l.textAt(k)
	}
	return l.at(k.word())
}

func (l *layer) setText(k key, v float64) {
	if l.text == nil {
		l.text = &textLayer{}
	}
	switch tx := l.text; k.kind {
	case kCount:
		if tx.counts == nil {
			tx.counts = make(map[string]float64)
		}
		tx.counts[k.sexpr] = v
	case kMeasured:
		if tx.measured == nil {
			tx.measured = make(map[DKey]float64)
		}
		tx.measured[DKey{k.term, k.sexpr}] = v
	default:
		if tx.assumed == nil {
			tx.assumed = make(map[CKey]float64)
		}
		tx.assumed[CKey{k.term, k.sexpr, k.spartner}] = v
	}
}

// set records a statistic of any kind in l.
func (l *layer) set(k key, v float64) {
	if k.text {
		l.setText(k, v)
		return
	}
	l.words.set(k.word(), v)
}

// each calls fn on every entry l itself holds, assumed ones only on request.
func (l *layer) each(withAssumed bool, fn func(k key, v float64)) {
	for _, s := range l.words.slots {
		if s.k.tag != 0 && (withAssumed || s.k.kind() != kAssumed) {
			fn(s.k.key(), s.v)
		}
	}
	l.text.each(withAssumed, fn)
}

// each calls fn on every entry of tx, which may be nil.
func (tx *textLayer) each(withAssumed bool, fn func(k key, v float64)) {
	if tx == nil {
		return
	}
	for e, v := range tx.counts {
		fn(key{kind: kCount, text: true, sexpr: e}, v)
	}
	for k, v := range tx.measured {
		fn(key{kind: kMeasured, text: true, term: k.Term, sexpr: k.Expr}, v)
	}
	if withAssumed {
		for k, v := range tx.assumed {
			fn(key{kind: kAssumed, text: true, term: k.Term, sexpr: k.Expr, spartner: k.Partner}, v)
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
		c := chain[i]
		for _, s := range c.words.slots {
			if s.k.tag != 0 && (withAssumed || s.k.kind() != kAssumed) {
				out.words.set(s.k, s.v)
			}
		}
		c.text.each(withAssumed, out.setText)
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
	l.each(true, func(k key, _ float64) {
		switch k.kind {
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

// Keys between text and words. Each word key has exactly one text — the Key
// of its alias sets, or the RawKey of its alias — and only that text parses
// back to it, so translating a store by name neither merges nor splits keys.

// parseKey keys a statistic given by text over u: a count (an input size
// when expr is a RawKey), or a distinct count over expr, against partner for
// an assumed one ("" otherwise).
func parseKey(u query.AliasSet, kind byte, term int, expr, partner string) key {
	if name, ok := strings.CutPrefix(expr, rawPrefix); ok && kind == kCount {
		if w, ok := u.ParseKey(name); ok && w != 0 && w&(w-1) == 0 {
			return key{kind: kRaw, expr: w}
		}
	} else if w, ok := u.ParseKey(expr); ok && wordTerm(term) {
		if p, ok := u.ParseKey(partner); ok {
			return key{kind: kind, term: term, expr: w, partner: p}
		}
	}
	return key{kind: kind, text: true, term: term, sexpr: expr, spartner: partner}
}

// wordTerm reports whether a term ID fits a word key's tag.
func wordTerm(t int) bool { return t >= 0 && t < 1<<32 }

// texts renders k's expression and partner by name over u.
func texts(u query.AliasSet, k key) (expr, partner string) {
	switch {
	case k.text:
		return k.sexpr, k.spartner
	case k.kind == kRaw:
		return RawKey(u.Subset(k.expr).Key()), ""
	}
	return u.Subset(k.expr).Key(), u.Subset(k.partner).Key()
}

// translate re-keys k, a key over from, over to.
func translate(k key, from, to query.AliasSet) key {
	expr, partner := texts(from, k)
	kind := k.kind
	if kind == kRaw {
		kind = kCount
	}
	return parseKey(to, kind, k.term, expr, partner)
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
	// u is the alias universe the chain's words are over (a query's full
	// set); empty while the store is unbound and keeps every entry by text.
	u     query.AliasSet
	head  *layer
	first layer // the head a store starts with, allocated with it
	// sig memoises BucketSignature until the next write; nil = not rendered.
	sig *sigMemo
}

// New creates an empty, unbound store.
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
// set. It is the one translation from text: every entry is re-keyed by name
// once, then lookups by alias set compare words. Binding to a universe with
// the names the store is keyed over already only adopts u, so a store cloned
// from another query of the same shape translates nothing. Binding changes
// no lookup, signature or count; an empty u is ignored.
func (s *Store) Bind(u query.AliasSet) {
	s.rlock()
	bound := s.u == u
	s.runlock()
	if bound || u.IsEmpty() {
		return
	}
	s.lock()
	defer s.unlock()
	if sameNames(s.u, u) {
		s.u = u
		return
	}
	var flat layer
	s.head.flatInto(&flat, true)
	head := &layer{}
	flat.each(true, func(k key, v float64) { head.set(translate(k, s.u, u), v) })
	s.u, s.head = u, head
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
	if h.text != nil {
		clear(h.text.counts)
		clear(h.text.measured)
		clear(h.text.assumed)
	}
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
// ordering between two stores is ever needed. Facts keyed over another
// universe are translated by name.
func (s *Store) MergeFrom(src *Store) {
	src.rlock()
	var facts layer
	src.head.flatInto(&facts, false)
	from := src.u
	src.runlock()
	s.lock()
	w := s.write()
	same := sameNames(from, s.u)
	facts.each(false, func(k key, v float64) {
		if !same {
			k = translate(k, from, s.u)
		}
		w.set(k, v)
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

// The string methods are the store's boundary: each key is translated by
// name into the word-keyed entries the alias-set methods below use.

// SetCount records c(expr); expr is an alias-set Key or a RawKey.
func (s *Store) SetCount(expr string, c float64) {
	s.lock()
	s.write().set(parseKey(s.u, kCount, 0, expr, ""), c)
	s.unlock()
}

// Count looks up c(expr).
func (s *Store) Count(expr string) (float64, bool) {
	s.rlock()
	defer s.runlock()
	return s.head.get(parseKey(s.u, kCount, 0, expr, ""))
}

// SetMeasured records a hardened distinct count for (term, expr), valid for
// any partner.
func (s *Store) SetMeasured(term int, expr string, d float64) {
	s.lock()
	s.write().set(parseKey(s.u, kMeasured, term, expr, ""), d)
	s.unlock()
}

// Measured looks up a hardened distinct count.
func (s *Store) Measured(term int, expr string) (float64, bool) {
	s.rlock()
	defer s.runlock()
	return s.head.get(parseKey(s.u, kMeasured, term, expr, ""))
}

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

// The alias-set methods are the search path's: a set of the universe the
// store is bound to is its word, with no string built or hashed. A set naming
// an alias outside it is looked up by its Key, as the string methods would.

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
// exactly the partner p; see Assumed.
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
	if w, ok := s.word(kind, term, e, p); ok {
		return s.head.at(w)
	}
	return s.head.textAt(textKey(kind, term, e, p))
}

func (s *Store) record(kind byte, term int, e, p query.AliasSet, v float64) {
	if !s.overlay {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	if w, ok := s.word(kind, term, e, p); ok {
		s.write().words.set(w, v)
		return
	}
	s.write().setText(textKey(kind, term, e, p), v)
}

// word keys a statistic over alias sets (p is the partner of an assumed
// count) by their words over the store's universe; false when the universe
// cannot name every member, and the statistic is keyed by text instead.
func (s *Store) word(kind byte, term int, e, p query.AliasSet) (wkey, bool) {
	w, ok := s.u.WordOf(e)
	if !ok || !wordTerm(term) {
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

// textKey keys a statistic over alias sets by the text the string methods
// would key it by.
func textKey(kind byte, term int, e, p query.AliasSet) key {
	if kind == kRaw {
		return key{kind: kCount, text: true, sexpr: RawKey(e.Key())}
	}
	return key{kind: kind, text: true, term: term, sexpr: e.Key(), spartner: p.Key()}
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

// AssumedEntries reports how many prior-sampled distinct counts are held.
func (s *Store) AssumedEntries() int {
	s.rlock()
	defer s.runlock()
	_, _, n := s.head.flattened().entries()
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
// render by name, exactly as the text keys they stand for. It is remembered
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
	l.each(true, func(k key, v float64) {
		from := len(b)
		b = sigLine(b, u, k, v)
		own = append(own, span{from, len(b)})
		if old, ok := l.parent.get(k); ok {
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
func sigLine(b []byte, u query.AliasSet, k key, v float64) []byte {
	tag := k.kind
	if tag == kRaw {
		tag = kCount
	}
	b = append(b, tag, ':')
	if tag != kCount {
		b = strconv.AppendInt(b, int64(k.term), 10)
		b = append(b, ':')
	}
	b = appendExpr(b, u, k, k.expr, k.sexpr)
	if tag == kAssumed {
		b = append(b, ':')
		b = appendExpr(b, u, k, k.partner, k.spartner)
	}
	b = append(b, ':')
	return strconv.AppendInt(b, int64(logBucket(v)), 10)
}

// appendExpr appends one of k's expressions quoted: its text, or the Key of
// its word over u — under "raw:" for an input size, whose quoting is that of
// RawKey's text because the prefix needs no escape.
func appendExpr(b []byte, u query.AliasSet, k key, w uint64, text string) []byte {
	switch {
	case k.text:
		return strconv.AppendQuote(b, text)
	case k.kind == kRaw:
		at := len(b) + 1 // past the opening quote
		b = strconv.AppendQuote(b, u.Subset(w).Key())
		b = append(b, rawPrefix...)
		copy(b[at+len(rawPrefix):], b[at:len(b)-len(rawPrefix)])
		copy(b[at:], rawPrefix)
		return b
	}
	return strconv.AppendQuote(b, u.Subset(w).Key())
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
	s.head.flattened().each(true, func(k key, v float64) {
		expr, partner := texts(s.u, k)
		kind := k.kind
		if kind == kRaw {
			kind = kCount
		}
		out = append(out, Entry{Kind: kind, Term: k.term, Expr: expr, Partner: partner, Value: v})
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
