// Package query defines the logical query IR the optimizers plan over:
// relations mounted under aliases, opaque function terms, join predicates of
// the form F1(...) = F2(...) (each side possibly spanning several aliases —
// a partially obscured, possibly multi-table predicate), selection predicates
// F(...) = const, and the join graph derived from them.
//
// A central simplification the whole repository leans on: because every plan
// eagerly applies every predicate that becomes applicable, the *result* of
// executing any join tree is determined by the set of aliases it covers.
// Expression identity — for materialization, for c(expr) statistics, and for
// d(term, expr) statistics — is therefore the alias set, independent of join
// order.
package query

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// MaxAliases is the most aliases one universe — and so one query — can hold:
// an AliasSet is a single machine word of membership bits.
const MaxAliases = 64

// universe is the sorted alias list a family of AliasSets indexes into: bit i
// of a set stands for names[i]. Every set a built Query hands out shares the
// query's universe, so the planner's set algebra is word operations; a set
// made by NewAliasSet alone carries a universe of just its own members.
type universe struct {
	names []string // sorted, unique, at most MaxAliases
	// texts memoises the Key and Names of multi-member subsets (uint64 bits →
	// *subsetText). It only ever holds subsets some plan actually formed, and
	// it lives and dies with the query that owns the universe and any
	// statistics store keyed over it.
	texts sync.Map
}

type subsetText struct {
	key   string
	names []string
}

func newUniverse(names []string) *universe {
	cp := make([]string, len(names))
	copy(cp, names)
	sort.Strings(cp)
	out := cp[:0]
	for i, n := range cp {
		if i == 0 || n != cp[i-1] {
			out = append(out, n)
		}
	}
	if len(out) > MaxAliases {
		// Input-driven paths never get here: Builder.Build and Validate turn
		// a query this wide into a TooManyRelationsError first.
		panic(fmt.Sprintf("query: alias set over %d aliases, the limit is %d", len(out), MaxAliases))
	}
	return &universe{names: out}
}

func (u *universe) full() uint64 {
	if len(u.names) == MaxAliases {
		return ^uint64(0)
	}
	return 1<<uint(len(u.names)) - 1
}

// index returns the bit position of name, or -1.
func (u *universe) index(name string) int {
	i := sort.SearchStrings(u.names, name)
	if i < len(u.names) && u.names[i] == name {
		return i
	}
	return -1
}

func (u *universe) text(b uint64) *subsetText {
	if t, ok := u.texts.Load(b); ok {
		return t.(*subsetText)
	}
	names := make([]string, 0, bits.OnesCount64(b))
	for r := b; r != 0; r &= r - 1 {
		names = append(names, u.names[bits.TrailingZeros64(r)])
	}
	t, _ := u.texts.LoadOrStore(b, &subsetText{key: strings.Join(names, "+"), names: names})
	return t.(*subsetText)
}

// AliasSet is an immutable set of relation aliases, held as membership bits
// over a sorted universe. The zero value is the empty set.
type AliasSet struct {
	u    *universe
	bits uint64
}

// NewAliasSet builds a set from the given names. It panics beyond MaxAliases
// distinct names; queries reach that limit as an error from Builder.Build.
func NewAliasSet(names ...string) AliasSet {
	if len(names) == 0 {
		return AliasSet{}
	}
	u := newUniverse(names)
	return AliasSet{u: u, bits: u.full()}
}

// bitsIn translates s into universe u: the bits of the members u knows, and
// whether that was all of them. A set of u's own — every set a built query
// hands out — takes the first line, which callers inline.
func (s AliasSet) bitsIn(u *universe) (uint64, bool) {
	if s.u != u {
		return s.translate(u)
	}
	return s.bits, true
}

// translate is bitsIn across universes: member by member, by name.
func (s AliasSet) translate(u *universe) (b uint64, all bool) {
	if s.bits == 0 {
		return 0, true
	}
	if u == nil {
		return 0, false
	}
	all = true
	for r := s.bits; r != 0; r &= r - 1 {
		if i := u.index(s.u.names[bits.TrailingZeros64(r)]); i >= 0 {
			b |= 1 << uint(i)
		} else {
			all = false
		}
	}
	return b, all
}

// WordOf returns the membership bits of s over u's universe, translating by
// name when s comes from another one; false when u's universe lacks one of
// s's members. A statistics store keys its entries by these words.
func (u AliasSet) WordOf(s AliasSet) (uint64, bool) { return s.bitsIn(u.u) }

// Subset returns the set whose bits over u's universe are w.
func (u AliasSet) Subset(w uint64) AliasSet { return AliasSet{u: u.u, bits: w} }

// Universe returns the set of every alias s's universe holds: a built
// query's Aliases for any set the query hands out.
func (s AliasSet) Universe() AliasSet {
	if s.u == nil {
		return AliasSet{}
	}
	return AliasSet{u: s.u, bits: s.u.full()}
}

// Key returns the canonical string form ("a+b+c"), used as a map key for
// materialized expressions and statistics.
func (s AliasSet) Key() string {
	switch {
	case s.bits == 0:
		return ""
	case s.bits&(s.bits-1) == 0:
		return s.u.names[bits.TrailingZeros64(s.bits)]
	}
	return s.u.text(s.bits).key
}

// Names returns the sorted member aliases. Callers must not mutate it.
func (s AliasSet) Names() []string {
	switch {
	case s.bits == 0:
		return nil
	case s.bits == s.u.full():
		return s.u.names
	case s.bits&(s.bits-1) == 0:
		i := bits.TrailingZeros64(s.bits)
		return s.u.names[i : i+1 : i+1]
	}
	return s.u.text(s.bits).names
}

// Singletons returns one single-member set per member, in name order, each
// over the same universe as s.
func (s AliasSet) Singletons() []AliasSet {
	out := make([]AliasSet, 0, s.Size())
	for r := s.bits; r != 0; r &= r - 1 {
		out = append(out, AliasSet{u: s.u, bits: r &^ (r - 1)})
	}
	return out
}

// Size returns the number of members.
func (s AliasSet) Size() int { return bits.OnesCount64(s.bits) }

// Contains reports membership of a single alias.
func (s AliasSet) Contains(a string) bool {
	if s.bits == 0 {
		return false
	}
	i := s.u.index(a)
	return i >= 0 && s.bits&(1<<uint(i)) != 0
}

// SubsetOf reports whether every member of s is in o.
func (s AliasSet) SubsetOf(o AliasSet) bool {
	b, all := s.bitsIn(o.u)
	return all && b&^o.bits == 0
}

// Intersects reports whether the two sets share any member.
func (s AliasSet) Intersects(o AliasSet) bool {
	b, _ := s.bitsIn(o.u)
	return b&o.bits != 0
}

// Equal reports set equality.
func (s AliasSet) Equal(o AliasSet) bool {
	b, all := s.bitsIn(o.u)
	return all && b == o.bits
}

// Union returns the set union. The result stays in whichever operand's
// universe holds both; only sets from unrelated universes pay for a new one.
func (s AliasSet) Union(o AliasSet) AliasSet {
	if b, all := o.bitsIn(s.u); all {
		return AliasSet{u: s.u, bits: s.bits | b}
	}
	if b, all := s.bitsIn(o.u); all {
		return AliasSet{u: o.u, bits: o.bits | b}
	}
	return NewAliasSet(append(append([]string(nil), s.Names()...), o.Names()...)...)
}

// IsEmpty reports whether the set has no members.
func (s AliasSet) IsEmpty() bool { return s.bits == 0 }

// String renders the set for logs.
func (s AliasSet) String() string {
	return "{" + strings.Join(s.Names(), ",") + "}"
}
