package expr

import (
	"reflect"
	"testing"

	"monsoon/internal/table"
	"monsoon/internal/value"
)

func schema(cols ...string) *table.Schema {
	cs := make([]table.Column, len(cols))
	for i, c := range cols {
		dot := -1
		for j := 0; j < len(c); j++ {
			if c[j] == '.' {
				dot = j
				break
			}
		}
		cs[i] = table.Column{Table: c[:dot], Name: c[dot+1:], Kind: value.KindString}
	}
	return table.NewSchema(cs...)
}

func TestAliases(t *testing.T) {
	u := &UDF{Name: "f", Args: []string{"s.b", "r.a", "r.c"}}
	if got := u.Aliases(); !reflect.DeepEqual(got, []string{"r", "s"}) {
		t.Errorf("Aliases = %v", got)
	}
}

func TestAliasesUnqualifiedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unqualified arg must panic")
		}
	}()
	(&UDF{Name: "f", Args: []string{"noalias"}}).Aliases()
}

func TestBindAndEval(t *testing.T) {
	s := schema("r.a", "r.b")
	u := Identity("r.b")
	if !u.Evaluable(s) {
		t.Fatal("identity should be evaluable")
	}
	b, ok := u.Bind(s)
	if !ok {
		t.Fatal("bind failed")
	}
	row := table.Row{value.String("x"), value.String("y")}
	if got := b.Eval(row); got.AsString() != "y" {
		t.Errorf("Eval = %v", got)
	}
	if b.udf != u {
		t.Error("binding holds the wrong UDF")
	}
}

func TestBindMissingAttr(t *testing.T) {
	s := schema("r.a")
	u := Identity("s.z")
	if u.Evaluable(s) {
		t.Error("should not be evaluable")
	}
	if _, ok := u.Bind(s); ok {
		t.Error("bind should fail")
	}
}

func TestRebase(t *testing.T) {
	u := ConcatKey("r.a", "s.b")
	r := u.Rebase(map[string]string{"r": "r1"})
	if !reflect.DeepEqual(r.Args, []string{"r1.a", "s.b"}) {
		t.Errorf("Rebase args = %v", r.Args)
	}
	// Original untouched.
	if u.Args[0] != "r.a" {
		t.Error("Rebase must not mutate the original")
	}
	if got := r.String(); got != "ConcatKey(r1.a,s.b)" {
		t.Errorf("String = %q", got)
	}
}

func eval1(u *UDF, v value.Value) value.Value {
	return u.Fn([]value.Value{v})
}

func TestExtractDate(t *testing.T) {
	u := ExtractDate("o.when")
	if got := eval1(u, value.String("2019-01-11 14:22:01")); got.AsString() != "2019-01-11" {
		t.Errorf("ExtractDate = %v", got)
	}
	if got := eval1(u, value.String("2019-01-11")); got.AsString() != "2019-01-11" {
		t.Errorf("ExtractDate without time = %v", got)
	}
}

func TestCity(t *testing.T) {
	u := City("s.ip")
	if got := eval1(u, value.String("10.42.1.7")); got.AsInt() != 10*256+42 {
		t.Errorf("City = %v", got)
	}
	if got := eval1(u, value.String("garbage")); !got.IsNull() {
		t.Errorf("City on garbage = %v, want NULL", got)
	}
	if got := eval1(u, value.String("a.b.c.d")); !got.IsNull() {
		t.Errorf("City on non-numeric = %v, want NULL", got)
	}
}

func TestBetween(t *testing.T) {
	u := Between("d.text", `id="`, `" url="`)
	doc := `<doc id="abc123" url="http://x">body</doc>`
	if got := eval1(u, value.String(doc)); got.AsString() != "abc123" {
		t.Errorf("Between = %v", got)
	}
	if got := eval1(u, value.String("no markers")); !got.IsNull() {
		t.Errorf("Between without markers = %v, want NULL", got)
	}
	if got := eval1(u, value.String(`id="only start`)); !got.IsNull() {
		t.Errorf("Between without end marker = %v, want NULL", got)
	}
}

func TestHashMod(t *testing.T) {
	u := HashMod("r.k", 10)
	seen := map[int64]bool{}
	for i := int64(0); i < 1000; i++ {
		v := eval1(u, value.Int(i)).AsInt()
		if v < 0 || v >= 10 {
			t.Fatalf("HashMod out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("HashMod should cover all buckets, got %d", len(seen))
	}
	// Deterministic.
	if eval1(u, value.Int(42)).AsInt() != eval1(u, value.Int(42)).AsInt() {
		t.Error("HashMod must be deterministic")
	}
}

func TestLowerPrefixYear(t *testing.T) {
	if eval1(Lower("r.s"), value.String("AbC")).AsString() != "abc" {
		t.Error("Lower failed")
	}
	if eval1(Prefix("r.s", 2), value.String("abcdef")).AsString() != "ab" {
		t.Error("Prefix failed")
	}
	if eval1(Prefix("r.s", 10), value.String("ab")).AsString() != "ab" {
		t.Error("Prefix of short string failed")
	}
	if eval1(YearOf("r.d"), value.String("1994-03-02")).AsInt() != 1994 {
		t.Error("YearOf failed")
	}
	if !eval1(YearOf("r.d"), value.String("xx")).IsNull() {
		t.Error("YearOf on short string should be NULL")
	}
	if !eval1(YearOf("r.d"), value.String("abcd-01-01")).IsNull() {
		t.Error("YearOf on non-numeric year should be NULL")
	}
}

func TestConcatKeyMultiTable(t *testing.T) {
	u := ConcatKey("r.a", "s.b")
	if got := u.Aliases(); !reflect.DeepEqual(got, []string{"r", "s"}) {
		t.Errorf("ConcatKey aliases = %v", got)
	}
	got := u.Fn([]value.Value{value.String("x"), value.String("y")})
	if got.AsString() != "x|y" {
		t.Errorf("ConcatKey = %v", got)
	}
	if !u.Fn([]value.Value{value.Null(), value.String("y")}).IsNull() {
		t.Error("ConcatKey with NULL arg should be NULL")
	}
}

func TestSetEqualsKey(t *testing.T) {
	u := SetEqualsKey("o.items")
	a := eval1(u, value.IntList([]int64{3, 1, 2}))
	b := eval1(u, value.IntList([]int64{2, 3, 1}))
	c := eval1(u, value.IntList([]int64{1, 2}))
	if !a.Equal(b) {
		t.Error("equal sets must produce equal keys")
	}
	if a.Equal(c) {
		t.Error("different sets must produce different keys")
	}
	if !eval1(u, value.Int(5)).IsNull() {
		t.Error("SetEqualsKey on non-list should be NULL")
	}
}

func TestSumMod(t *testing.T) {
	u := SumMod("r.a", "s.b", 7)
	got := u.Fn([]value.Value{value.Int(10), value.Int(11)})
	if got.AsInt() != 0 {
		t.Errorf("SumMod(10,11)%%7 = %v, want 0", got)
	}
	neg := u.Fn([]value.Value{value.Int(-10), value.Int(2)})
	if v := neg.AsInt(); v < 0 || v >= 7 {
		t.Errorf("SumMod must normalize negatives, got %v", v)
	}
}

func TestConstAndIdentityNames(t *testing.T) {
	// A constant is a UDF of no arguments: it reads no alias.
	c := &UDF{Name: "const", Fn: func([]value.Value) value.Value { return value.String("1/11/19") }}
	if got := c.Fn(nil); got.AsString() != "1/11/19" {
		t.Errorf("const = %v", got)
	}
	if len(c.Aliases()) != 0 {
		t.Error("a constant UDF has no aliases")
	}
	if Identity("r.a").Name != "id" {
		t.Error("Identity name wrong")
	}
}
