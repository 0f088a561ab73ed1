package query

import (
	"fmt"

	"monsoon/internal/expr"
	"monsoon/internal/value"
)

// Term is one side of a predicate: an opaque UDF together with the alias set
// it spans. Terms carry a query-unique ID used as the statistics key for
// d(term, expr | partner).
type Term struct {
	ID      int
	Fn      *expr.UDF
	Aliases AliasSet
}

// String renders the term for plans and logs.
func (t *Term) String() string { return t.Fn.String() }

// JoinPred is an equality predicate L = R between two function terms whose
// alias sets are disjoint. When either side spans more than one alias it is a
// multi-table obscured predicate: no statistic for that side can exist until
// an expression covering the side has been materialized.
type JoinPred struct {
	ID   int
	L, R *Term
}

// Aliases returns the union of both sides' aliases.
func (p *JoinPred) Aliases() AliasSet { return p.L.Aliases.Union(p.R.Aliases) }

// NewAt reports whether the predicate becomes applicable exactly at the join
// of left and right: over their union but over neither side alone.
func (p *JoinPred) NewAt(left, right AliasSet) bool { return p.newAt(left, right, left.Union(right)) }

func (p *JoinPred) newAt(left, right, union AliasSet) bool {
	return p.ApplicableAt(union) && !p.ApplicableAt(left) && !p.ApplicableAt(right)
}

// ApplicableAt reports whether the predicate can be evaluated over an
// expression covering the given alias set.
func (p *JoinPred) ApplicableAt(s AliasSet) bool {
	return p.L.Aliases.SubsetOf(s) && p.R.Aliases.SubsetOf(s)
}

// String renders the predicate.
func (p *JoinPred) String() string { return p.L.String() + " = " + p.R.String() }

// SelPred is a selection predicate T = const. Single-alias selections are
// pushed to scans; multi-alias selections are applied as soon as a plan node
// covers them.
type SelPred struct {
	ID    int
	T     *Term
	Const value.Value
}

// String renders the predicate.
func (p *SelPred) String() string { return p.T.String() + " = " + p.Const.String() }

// NewAt reports whether the selection becomes applicable exactly at the join
// of left and right: over their union but within neither side.
func (p *SelPred) NewAt(left, right AliasSet) bool {
	a := p.T.Aliases
	return a.SubsetOf(left.Union(right)) && !a.SubsetOf(left) && !a.SubsetOf(right)
}

// AggKind selects the final aggregate computed over the completed join.
type AggKind uint8

// The supported final aggregates.
const (
	AggCount AggKind = iota // COUNT(*)
	AggSum                  // SUM(attr)
)

// Agg describes the query's final aggregate.
type Agg struct {
	Kind AggKind
	Attr string // qualified attribute for AggSum
}

// RelRef mounts a stored base table under an alias.
type RelRef struct {
	Alias string
	Table string
}

// Query is the logical query: relations, join predicates, selections, and a
// final aggregate. Build instances through the Builder so IDs and alias sets
// stay consistent.
type Query struct {
	Name  string
	Rels  []RelRef
	Joins []*JoinPred
	Sels  []*SelPred
	Out   Agg

	terms []*Term
	// u is the alias universe every set of a built query indexes into; nil
	// for a Query assembled by hand, whose sets then each carry their own.
	u *universe
}

// Aliases returns the set of all aliases in the query.
func (q *Query) Aliases() AliasSet {
	u := q.u
	if u == nil {
		u = q.relUniverse()
	}
	return AliasSet{u: u, bits: u.full()}
}

// relUniverse builds the universe of the mounted relations' aliases. The
// caller has checked the width.
func (q *Query) relUniverse() *universe {
	names := make([]string, len(q.Rels))
	for i, r := range q.Rels {
		names[i] = r.Alias
	}
	return newUniverse(names)
}

// tooWide reports a query with more relations than one universe holds.
func (q *Query) tooWide() error {
	if len(q.Rels) > MaxAliases {
		return &TooManyRelationsError{Query: q.Name, Relations: len(q.Rels)}
	}
	return nil
}

// Own re-expresses a caller's set over the query's universe, so a loop over
// the query's predicates compares words even when the set was built with
// NewAliasSet. A set naming an alias the query lacks is returned as it came.
func (q *Query) Own(s AliasSet) AliasSet {
	if q.u == nil {
		return s
	}
	if b, all := s.bitsIn(q.u); all {
		return AliasSet{u: q.u, bits: b}
	}
	return s
}

// Terms returns every term in the query (join sides and selection terms),
// indexed by Term.ID.
func (q *Query) Terms() []*Term { return q.terms }

// Term returns the term with the given ID.
func (q *Query) Term(id int) *Term { return q.terms[id] }

// TableOf resolves an alias to its base-table name.
func (q *Query) TableOf(alias string) (string, bool) {
	for _, r := range q.Rels {
		if r.Alias == alias {
			return r.Table, true
		}
	}
	return "", false
}

// JoinsApplicableAt lists the join predicates evaluable over an alias set. It
// is public API (monsoon.Query); nothing inside the repository calls it: the
// engine and the cost model ask PredsNewAt for what one join newly applies.
func (q *Query) JoinsApplicableAt(s AliasSet) []*JoinPred {
	s = q.Own(s)
	var out []*JoinPred
	for _, p := range q.Joins {
		if p.ApplicableAt(s) {
			out = append(out, p)
		}
	}
	return out
}

// PredsNewAt returns the join predicates that are applicable over the union
// of two alias sets but not over either side alone — exactly the predicates a
// join of the two sides must evaluate.
func (q *Query) PredsNewAt(left, right AliasSet) []*JoinPred {
	left, right = q.Own(left), q.Own(right)
	union := left.Union(right)
	var out []*JoinPred
	for _, p := range q.Joins {
		if p.newAt(left, right, union) {
			out = append(out, p)
		}
	}
	return out
}

// SelsNewAt returns the selection predicates applicable at the union but not
// within either side.
func (q *Query) SelsNewAt(left, right AliasSet) []*SelPred {
	left, right = q.Own(left), q.Own(right)
	var out []*SelPred
	for _, p := range q.Sels {
		if p.NewAt(left, right) {
			out = append(out, p)
		}
	}
	return out
}

// SelsAt returns the selection predicates fully contained in the alias set.
func (q *Query) SelsAt(s AliasSet) []*SelPred {
	s = q.Own(s)
	var out []*SelPred
	for _, p := range q.Sels {
		if p.T.Aliases.SubsetOf(s) {
			out = append(out, p)
		}
	}
	return out
}

// Connected reports whether joining the expressions covering left and right
// is "useful": it newly enables a join predicate, or it newly makes some
// predicate side evaluable (the multi-table-UDF case that can force a cross
// product, e.g. F1(R,S) = F2(T) forces R×S before the predicate exists).
func (q *Query) Connected(left, right AliasSet) bool {
	left, right = q.Own(left), q.Own(right)
	union := left.Union(right)
	for _, p := range q.Joins {
		if p.newAt(left, right, union) {
			return true
		}
	}
	newlyEvaluable := func(t *Term) bool {
		return t.Aliases.Size() > 1 && t.Aliases.SubsetOf(union) &&
			!t.Aliases.SubsetOf(left) && !t.Aliases.SubsetOf(right)
	}
	for _, p := range q.Joins {
		if newlyEvaluable(p.L) || newlyEvaluable(p.R) {
			return true
		}
	}
	return false
}

// TooManyRelationsError reports a query that mounts more relations than an
// AliasSet can index. Build and Validate return it (sqlish.Parse passes it
// through unwrapped), so a server can answer the client instead of planning.
type TooManyRelationsError struct {
	Query     string
	Relations int
}

func (e *TooManyRelationsError) Error() string {
	return fmt.Sprintf("query %s: %d relations, the limit is %d", e.Query, e.Relations, MaxAliases)
}

// Validate checks structural invariants: the relations fit one alias
// universe, aliases resolve, join sides are disjoint and non-empty, term IDs
// are dense. Builders call it; tests can too.
func (q *Query) Validate() error {
	if err := q.tooWide(); err != nil {
		return err
	}
	all := q.Aliases()
	if all.Size() != len(q.Rels) {
		return fmt.Errorf("query %s: duplicate aliases", q.Name)
	}
	for _, p := range q.Joins {
		if p.L.Aliases.IsEmpty() || p.R.Aliases.IsEmpty() {
			return fmt.Errorf("query %s: join pred %d has an empty side", q.Name, p.ID)
		}
		if p.L.Aliases.Intersects(p.R.Aliases) {
			return fmt.Errorf("query %s: join pred %d sides overlap", q.Name, p.ID)
		}
		if !p.Aliases().SubsetOf(all) {
			return fmt.Errorf("query %s: join pred %d references unknown alias", q.Name, p.ID)
		}
	}
	for _, p := range q.Sels {
		if !p.T.Aliases.SubsetOf(all) {
			return fmt.Errorf("query %s: selection %d references unknown alias", q.Name, p.ID)
		}
	}
	for i, t := range q.terms {
		if t.ID != i {
			return fmt.Errorf("query %s: term ID %d at index %d", q.Name, t.ID, i)
		}
	}
	return nil
}

// Builder assembles a Query with consistent IDs.
type Builder struct {
	q *Query
}

// NewBuilder starts a query.
func NewBuilder(name string) *Builder {
	return &Builder{q: &Query{Name: name, Out: Agg{Kind: AggCount}}}
}

// Rel mounts table under alias.
func (b *Builder) Rel(alias, tableName string) *Builder {
	b.q.Rels = append(b.q.Rels, RelRef{Alias: alias, Table: tableName})
	return b
}

// term registers fn as a term; its alias set is resolved by Build, once the
// relations — and with them the universe — are all known.
func (b *Builder) term(fn *expr.UDF) *Term {
	t := &Term{ID: len(b.q.terms), Fn: fn}
	b.q.terms = append(b.q.terms, t)
	return t
}

// Join adds the predicate left = right.
func (b *Builder) Join(left, right *expr.UDF) *Builder {
	p := &JoinPred{ID: len(b.q.Joins), L: b.term(left), R: b.term(right)}
	b.q.Joins = append(b.q.Joins, p)
	return b
}

// Select adds the predicate fn = constant.
func (b *Builder) Select(fn *expr.UDF, constant value.Value) *Builder {
	p := &SelPred{ID: len(b.q.Sels), T: b.term(fn), Const: constant}
	b.q.Sels = append(b.q.Sels, p)
	return b
}

// Sum sets the final aggregate to SUM(attr).
func (b *Builder) Sum(attr string) *Builder {
	b.q.Out = Agg{Kind: AggSum, Attr: attr}
	return b
}

// Build fixes the query's alias universe from its relations, resolves every
// term's aliases against it, validates, and returns the query.
func (b *Builder) Build() (*Query, error) {
	q := b.q
	if err := q.tooWide(); err != nil {
		return nil, err
	}
	q.u = q.relUniverse()
	for _, t := range q.terms {
		t.Aliases = AliasSet{u: q.u}
		for _, a := range t.Fn.Aliases() {
			i := q.u.index(a)
			if i < 0 {
				return nil, fmt.Errorf("query %s: term %s references unknown alias %q", q.Name, t, a)
			}
			t.Aliases.bits |= 1 << uint(i)
		}
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustBuild builds or panics; benchmark suites use it since their queries are
// static.
func (b *Builder) MustBuild() *Query {
	q, err := b.Build()
	if err != nil {
		panic(err)
	}
	return q
}
