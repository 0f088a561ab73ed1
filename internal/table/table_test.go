package table

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"monsoon/internal/randx"
	"monsoon/internal/value"
)

func intCol(t, n string) Column { return Column{Table: t, Name: n, Kind: value.KindInt} }

func TestSchemaLookup(t *testing.T) {
	s := NewSchema(intCol("r", "a"), intCol("r", "b"))
	if i, ok := s.Lookup("r.a"); !ok || i != 0 {
		t.Errorf("Lookup(r.a) = %d,%v", i, ok)
	}
	if i, ok := s.Lookup("r.b"); !ok || i != 1 {
		t.Errorf("Lookup(r.b) = %d,%v", i, ok)
	}
	if _, ok := s.Lookup("r.c"); ok {
		t.Error("Lookup of missing column should fail")
	}
	if s.MustLookup("r.b") != 1 {
		t.Error("MustLookup failed")
	}
}

func TestSchemaMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLookup on missing column must panic")
		}
	}()
	NewSchema(intCol("r", "a")).MustLookup("r.z")
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate qualified names must panic")
		}
	}()
	NewSchema(intCol("r", "a"), intCol("r", "a"))
}

func TestSchemaConcatAndRename(t *testing.T) {
	a := NewSchema(intCol("r", "x"))
	b := NewSchema(intCol("s", "y"))
	c := a.Concat(b)
	if len(c.Cols) != 2 || c.MustLookup("r.x") != 0 || c.MustLookup("s.y") != 1 {
		t.Errorf("Concat wrong: %s", c)
	}
	ren := a.Renamed("r2")
	if _, ok := ren.Lookup("r.x"); ok {
		t.Error("renamed schema should not expose old alias")
	}
	if ren.MustLookup("r2.x") != 0 {
		t.Error("renamed schema lookup failed")
	}
	if s := c.String(); s != "(r.x, s.y)" {
		t.Errorf("String() = %q", s)
	}
}

func TestBuilderAndRelation(t *testing.T) {
	s := NewSchema(intCol("r", "a"), intCol("r", "b"))
	b := NewBuilder("r", s)
	b.Add(value.Int(1), value.Int(2))
	b.Add(value.Int(3), value.Int(4))
	rel := b.Build()
	if rel.Count() != 2 || rel.Name != "r" {
		t.Errorf("relation wrong: %+v", rel)
	}
	if rel.Rows[1][0].AsInt() != 3 {
		t.Error("row content wrong")
	}
}

// TestIdenticalRows: rows are compared by value, not by where their strings'
// bytes live — which is what reflect.DeepEqual compares, and why tests that
// compare two runs' rows call IdenticalRows instead.
func TestIdenticalRows(t *testing.T) {
	build := func(key string) []Row {
		return []Row{
			{value.Int(1), value.String(strings.Repeat(key, 2)), value.Null()},
			{value.Float(math.NaN()), value.IntList([]int64{2, 1}), value.Bool(true)},
		}
	}
	a, b := build("ab"), build("ab")
	if !IdenticalRows(a, b) {
		t.Error("separately built equal rows must be identical")
	}
	if reflect.DeepEqual(a, b) {
		t.Error("reflect.DeepEqual no longer sees the strings' data pointers: IdenticalRows has lost its reason")
	}
	if !IdenticalRows(nil, []Row{}) {
		t.Error("no rows are identical to no rows")
	}
	for what, other := range map[string][]Row{
		"a different string":  build("ac"),
		"a missing row":       b[:1],
		"a shorter row":       {b[0][:2], b[1]},
		"rows in other order": {b[1], b[0]},
		"int against float":   {{value.Float(1), b[0][1], b[0][2]}, b[1]},
	} {
		if IdenticalRows(a, other) {
			t.Errorf("%s must not be identical", what)
		}
	}
}

func TestBuilderArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch must panic")
		}
	}()
	NewBuilder("r", NewSchema(intCol("r", "a"))).Add(value.Int(1), value.Int(2))
}

func TestRelationRenamed(t *testing.T) {
	s := NewSchema(intCol("orders", "id"))
	b := NewBuilder("orders", s)
	b.Add(value.Int(9))
	o1 := b.Build().Renamed("o1")
	if o1.Name != "o1" || o1.Schema.MustLookup("o1.id") != 0 {
		t.Error("Renamed relation wrong")
	}
	if o1.Rows[0][0].AsInt() != 9 {
		t.Error("renamed relation must share rows")
	}
}

func TestBootstrap(t *testing.T) {
	s := NewSchema(intCol("r", "a"))
	b := NewBuilder("r", s)
	for i := 0; i < 100; i++ {
		b.Add(value.Int(int64(i)))
	}
	rel := b.Build()
	rng := randx.New(5)
	big := rel.Bootstrap(5, rng)
	if big.Count() != 500 {
		t.Errorf("bootstrap count = %d, want 500", big.Count())
	}
	// All rows must come from the original domain.
	for _, row := range big.Rows {
		v := row[0].AsInt()
		if v < 0 || v >= 100 {
			t.Fatalf("bootstrap produced foreign value %d", v)
		}
	}
	// With replacement: at 5x, expect duplicates.
	seen := map[int64]int{}
	for _, row := range big.Rows {
		seen[row[0].AsInt()]++
	}
	dups := 0
	for _, c := range seen {
		if c > 1 {
			dups++
		}
	}
	if dups == 0 {
		t.Error("bootstrap with replacement should duplicate rows")
	}
}

func TestBootstrapEmptyAndBadFactor(t *testing.T) {
	rel := NewRelation("e", NewSchema(intCol("e", "a")), nil)
	if rel.Bootstrap(3, randx.New(1)).Count() != 0 {
		t.Error("bootstrap of empty relation should be empty")
	}
	defer func() {
		if recover() == nil {
			t.Error("bootstrap factor 0 must panic")
		}
	}()
	rel.Bootstrap(0, randx.New(1))
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	s := NewSchema(intCol("r", "a"))
	b := NewBuilder("r", s)
	b.Add(value.Int(1))
	c.Put(b.Build())
	if _, ok := c.Get("r"); !ok {
		t.Error("Get failed")
	}
	if _, ok := c.Get("zz"); ok {
		t.Error("Get of missing table should fail")
	}
	if c.MustGet("r").Count() != 1 {
		t.Error("MustGet failed")
	}
	if c.TotalRows() != 1 {
		t.Errorf("TotalRows = %d", c.TotalRows())
	}
	if len(c.Names()) != 1 || c.Names()[0] != "r" {
		t.Errorf("Names = %v", c.Names())
	}
}

func TestCatalogMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGet on missing table must panic")
		}
	}()
	NewCatalog().MustGet("nope")
}
