// Package table provides the row-store storage layer: schemas with
// table-qualified column names, immutable-after-build relations, and the
// bootstrap-resampling utility the IMDB benchmark uses to scale data.
package table

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"monsoon/internal/value"
)

// Column describes one attribute of a schema. Table holds the alias the
// column is visible under (base table name for stored tables, alias after
// renaming in a query).
type Column struct {
	Table string
	Name  string
	Kind  value.Kind
}

// Qualified returns the "table.name" form used to resolve attribute refs.
func (c Column) Qualified() string { return c.Table + "." + c.Name }

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
	idx  map[string]int
}

// NewSchema builds a schema from columns and indexes them for lookup.
// Duplicate qualified names panic: they indicate a planner bug.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Cols: cols, idx: make(map[string]int, len(cols))}
	for i, c := range cols {
		q := c.Qualified()
		if _, dup := s.idx[q]; dup {
			panic(fmt.Sprintf("table: duplicate column %q in schema", q))
		}
		s.idx[q] = i
	}
	return s
}

// Lookup resolves a qualified attribute name to its column position.
func (s *Schema) Lookup(qualified string) (int, bool) {
	i, ok := s.idx[qualified]
	return i, ok
}

// MustLookup resolves or panics; used where the planner has already verified
// bindability.
func (s *Schema) MustLookup(qualified string) int {
	i, ok := s.Lookup(qualified)
	if !ok {
		panic(fmt.Sprintf("table: unknown column %q in schema %s", qualified, s))
	}
	return i
}

// Concat returns a new schema with the columns of s followed by those of o.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Cols)+len(o.Cols))
	cols = append(cols, s.Cols...)
	cols = append(cols, o.Cols...)
	return NewSchema(cols...)
}

// Renamed returns a copy of the schema with every column's Table replaced by
// alias. Queries use this to mount one stored table under several aliases
// (e.g. order o1, order o2).
func (s *Schema) Renamed(alias string) *Schema {
	cols := make([]Column, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = Column{Table: alias, Name: c.Name, Kind: c.Kind}
	}
	return NewSchema(cols...)
}

// String renders the schema for error messages.
func (s *Schema) String() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		parts[i] = c.Qualified()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Row is one tuple; its arity matches the owning relation's schema.
type Row []value.Value

// IdenticalRows reports whether a and b hold the same rows in the same order:
// the same arities and value.Identical values throughout. It is how two runs'
// outputs are compared; reflect.DeepEqual is not, because it compares the
// data pointer inside a value.Value and equal strings built by separate runs
// do not share one.
func IdenticalRows(a, b []Row) bool {
	return slices.EqualFunc(a, b, func(x, y Row) bool {
		return slices.EqualFunc(x, y, value.Identical)
	})
}

// Relation is a named bag of rows with a schema. After construction via
// Builder or the helper constructors, a Relation is treated as immutable by
// the engine.
type Relation struct {
	Name   string
	Schema *Schema
	Rows   []Row
}

// NewRelation wraps a schema and rows into a relation.
func NewRelation(name string, schema *Schema, rows []Row) *Relation {
	return &Relation{Name: name, Schema: schema, Rows: rows}
}

// Count returns the number of rows.
func (r *Relation) Count() int { return len(r.Rows) }

// Renamed returns a view of the relation mounted under a different alias.
// Rows are shared, the schema is rewritten.
func (r *Relation) Renamed(alias string) *Relation {
	return &Relation{Name: alias, Schema: r.Schema.Renamed(alias), Rows: r.Rows}
}

// Bootstrap returns a new relation with factor*n rows sampled with
// replacement from r, reproducing the paper's IMDB scaling methodology
// ("we create a new version of the table with 5×n tuples by sampling 5×n
// times from the original table, with replacement").
func (r *Relation) Bootstrap(factor int, rng *rand.Rand) *Relation {
	if factor <= 0 {
		panic("table: bootstrap factor must be positive")
	}
	n := len(r.Rows)
	out := make([]Row, 0, n*factor)
	if n == 0 {
		return &Relation{Name: r.Name, Schema: r.Schema, Rows: out}
	}
	for i := 0; i < n*factor; i++ {
		out = append(out, r.Rows[rng.Intn(n)])
	}
	return &Relation{Name: r.Name, Schema: r.Schema, Rows: out}
}

// Builder accumulates rows for a relation while validating arity.
type Builder struct {
	name   string
	schema *Schema
	rows   []Row
}

// NewBuilder starts building a relation with the given schema.
func NewBuilder(name string, schema *Schema) *Builder {
	return &Builder{name: name, schema: schema}
}

// Add appends one row; arity mismatches panic (generator bug).
func (b *Builder) Add(vals ...value.Value) {
	if len(vals) != len(b.schema.Cols) {
		panic(fmt.Sprintf("table: row arity %d != schema arity %d for %s",
			len(vals), len(b.schema.Cols), b.name))
	}
	row := make(Row, len(vals))
	copy(row, vals)
	b.rows = append(b.rows, row)
}

// Build finalizes the relation.
func (b *Builder) Build() *Relation {
	return &Relation{Name: b.name, Schema: b.schema, Rows: b.rows}
}

// Catalog maps base-table names to stored relations.
type Catalog struct {
	tables map[string]*Relation
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog { return &Catalog{tables: make(map[string]*Relation)} }

// Put registers (or replaces) a stored table.
func (c *Catalog) Put(r *Relation) { c.tables[r.Name] = r }

// Shard does nothing. The catalog has no shard layout; the call survives only
// because the benchmark's layer pass (benchmark/layers.go) still times
// Shard(4) and re-runs its trees after it, and goes with those two metrics.
func (c *Catalog) Shard(int) {}

// Get fetches a stored table.
func (c *Catalog) Get(name string) (*Relation, bool) {
	r, ok := c.tables[name]
	return r, ok
}

// MustGet fetches a stored table or panics.
func (c *Catalog) MustGet(name string) *Relation {
	r, ok := c.tables[name]
	if !ok {
		panic(fmt.Sprintf("table: no table %q in catalog", name))
	}
	return r
}

// Names lists the registered table names (unordered).
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
}

// TotalRows sums row counts across the catalog; benchmarks report it as the
// dataset size.
func (c *Catalog) TotalRows() int {
	total := 0
	for _, r := range c.tables {
		total += len(r.Rows)
	}
	return total
}
