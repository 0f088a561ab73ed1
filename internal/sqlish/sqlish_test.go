package sqlish

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"monsoon/internal/expr"

	"monsoon/internal/query"
	"monsoon/internal/value"
)

func parse(t *testing.T, src string) *query.Query {
	t.Helper()
	q, err := Parse("t", src, nil)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

func TestParseFraudQuery(t *testing.T) {
	q := parse(t, `
		SELECT COUNT(*)
		FROM order o1, order o2, sess s1, sess s2
		WHERE SetKey(o1.items) = SetKey(o2.items)
		  AND ExtractDate(o1.when) = '2019-01-11'
		  AND ExtractDate(o2.when) = '2019-01-11'
		  AND o1.cID = s1.cID
		  AND o2.cID = s2.cID
		  AND City(s1.ipAdd) = City(s2.ipAdd)`)
	if q.Aliases().Key() != "o1+o2+s1+s2" {
		t.Errorf("aliases = %v", q.Aliases())
	}
	if len(q.Joins) != 4 || len(q.Sels) != 2 {
		t.Errorf("joins=%d sels=%d, want 4/2", len(q.Joins), len(q.Sels))
	}
	if tbl, _ := q.TableOf("o2"); tbl != "order" {
		t.Errorf("o2 table = %q", tbl)
	}
	if q.Out.Kind != query.AggCount {
		t.Error("aggregate should be COUNT")
	}
}

func TestParseSum(t *testing.T) {
	q := parse(t, `SELECT SUM(r.a) FROM r, s WHERE r.k = s.k`)
	if q.Out.Kind != query.AggSum || q.Out.Attr != "r.a" {
		t.Errorf("aggregate = %+v", q.Out)
	}
	// Tables without aliases use their names.
	if _, ok := q.TableOf("r"); !ok {
		t.Error("bare table name must become its own alias")
	}
}

func TestParseLiteralKinds(t *testing.T) {
	q := parse(t, `SELECT COUNT(*) FROM r WHERE r.a = 42 AND r.b = 4.5 AND r.c = 'x''y'`)
	if len(q.Sels) != 3 {
		t.Fatalf("sels = %d", len(q.Sels))
	}
	if !q.Sels[0].Const.Equal(value.Int(42)) {
		t.Errorf("int literal = %v", q.Sels[0].Const)
	}
	if !q.Sels[1].Const.Equal(value.Float(4.5)) {
		t.Errorf("float literal = %v", q.Sels[1].Const)
	}
	if q.Sels[2].Const.AsString() != "x'y" {
		t.Errorf("escaped string literal = %q", q.Sels[2].Const.AsString())
	}
}

func TestParseFlippedSelection(t *testing.T) {
	q := parse(t, `SELECT COUNT(*) FROM r WHERE 7 = HashMod(r.a, 10)`)
	if len(q.Sels) != 1 || !q.Sels[0].Const.Equal(value.Int(7)) {
		t.Errorf("flipped selection not normalized: %+v", q.Sels)
	}
}

func TestParseUDFWithLiteralArgs(t *testing.T) {
	q := parse(t, `SELECT COUNT(*) FROM d, e
		WHERE Between(d.text, 'id="', '" url=') = Sprintf(e.id, 'T%06d')
		AND Prefix(d.text, 3) = 'abc'`)
	if len(q.Joins) != 1 || len(q.Sels) != 1 {
		t.Fatalf("joins=%d sels=%d", len(q.Joins), len(q.Sels))
	}
	if !strings.HasPrefix(q.Joins[0].L.Fn.Name, "Between") {
		t.Errorf("left fn = %q", q.Joins[0].L.Fn.Name)
	}
}

func TestParseMultiTableUDF(t *testing.T) {
	q := parse(t, `SELECT COUNT(*) FROM r, s, t WHERE SumMod(r.a, s.b, 100) = t.k`)
	if len(q.Joins) != 1 {
		t.Fatalf("joins = %d", len(q.Joins))
	}
	if q.Joins[0].L.Aliases.Key() != "r+s" {
		t.Errorf("multi-table side = %v", q.Joins[0].L.Aliases)
	}
}

func TestParseCaseInsensitiveKeywordsAndUDFs(t *testing.T) {
	q := parse(t, `select count(*) from r, s where lower(r.x) = lower(s.y)`)
	if len(q.Joins) != 1 {
		t.Errorf("joins = %d", len(q.Joins))
	}
}

func TestCustomRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Register("Twice", func(attrs []string, consts []value.Value) (*expr.UDF, error) {
		if len(attrs) != 1 || len(consts) != 0 {
			return nil, errBadArgs
		}
		return &expr.UDF{
			Name: "Twice",
			Args: []string{attrs[0]},
			Fn:   func(args []value.Value) value.Value { return value.Int(2 * args[0].AsInt()) },
		}, nil
	})
	q, err := Parse("custom", `SELECT COUNT(*) FROM r, s WHERE Twice(r.a) = s.b`, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Joins) != 1 || q.Joins[0].L.Fn.Name != "Twice" {
		t.Errorf("custom UDF not wired: %+v", q.Joins)
	}
	got := q.Joins[0].L.Fn.Fn([]value.Value{value.Int(21)})
	if got.AsInt() != 42 {
		t.Errorf("custom UDF eval = %v", got)
	}
	// Lookup is case-insensitive.
	if _, ok := reg.Lookup("tWiCe"); !ok {
		t.Error("registry lookup must be case-insensitive")
	}
}

var errBadArgs = &argErr{}

type argErr struct{}

func (*argErr) Error() string { return "bad arguments" }

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`SELECT`,
		`SELECT COUNT(*)`,
		`SELECT MAX(r.a) FROM r`,
		`SELECT COUNT(*) FROM r WHERE`,
		`SELECT COUNT(*) FROM r WHERE r.a`,
		`SELECT COUNT(*) FROM r WHERE r.a = `,
		`SELECT COUNT(*) FROM r WHERE 'a' = 'b'`,
		`SELECT COUNT(*) FROM r WHERE Nope(r.a) = 1`,
		`SELECT COUNT(*) FROM r WHERE Prefix(r.a) = 'x'`, // missing literal arg
		`SELECT COUNT(*) FROM r WHERE r.a = 'unterminated`,
		`SELECT COUNT(*) FROM r WHERE r.a = r.b extra`,
		`SELECT COUNT(*) FROM r, r WHERE r.a = 1`, // duplicate alias
		`SELECT COUNT(*) FROM r WHERE r.a = ?`,
		`SELECT COUNT(*) FROM r WHERE r.a = -`,
	}
	for _, src := range cases {
		if _, err := Parse("bad", src, nil); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParsedQueryValidates(t *testing.T) {
	q := parse(t, `SELECT COUNT(*) FROM a, b, c
		WHERE a.x = b.x AND HashMod(b.y, 8) = HashMod(c.y, 8)`)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if !q.Connected(query.NewAliasSet("a"), query.NewAliasSet("b")) {
		t.Error("parsed join graph wrong")
	}
}

// TestParseTooManyRelations: a FROM list wider than an alias set holds comes
// back as the query package's typed error, unwrapped, so a server can tell
// the client's mistake from a syntax error — and not as a panic.
func TestParseTooManyRelations(t *testing.T) {
	from := func(n int) string {
		rels := make([]string, n)
		for i := range rels {
			rels[i] = fmt.Sprintf("t r%02d", i)
		}
		return "SELECT COUNT(*) FROM " + strings.Join(rels, ", ")
	}
	if _, err := Parse("wide", from(query.MaxAliases), nil); err != nil {
		t.Fatalf("%d relations must parse: %v", query.MaxAliases, err)
	}
	_, err := Parse("wide", from(query.MaxAliases+1), nil)
	var tooMany *query.TooManyRelationsError
	if !errors.As(err, &tooMany) || tooMany.Relations != query.MaxAliases+1 {
		t.Fatalf("%d relations: err = %v, want a *query.TooManyRelationsError", query.MaxAliases+1, err)
	}
	// A single term naming more aliases than exist is an unknown-alias error
	// at Build, long before any set could overflow.
	if _, err := Parse("ghost", "SELECT COUNT(*) FROM t a WHERE a.x = zz.y", nil); err == nil ||
		!strings.Contains(err.Error(), "unknown alias") {
		t.Fatalf("unknown alias: err = %v", err)
	}
}
