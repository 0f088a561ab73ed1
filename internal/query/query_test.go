package query

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"monsoon/internal/expr"
	"monsoon/internal/value"
)

func TestAliasSetBasics(t *testing.T) {
	s := NewAliasSet("b", "a", "b")
	if s.Key() != "a+b" {
		t.Errorf("Key = %q", s.Key())
	}
	if s.Size() != 2 || !s.Contains("a") || s.Contains("c") {
		t.Error("membership wrong")
	}
	if !NewAliasSet("a").SubsetOf(s) || s.SubsetOf(NewAliasSet("a")) {
		t.Error("SubsetOf wrong")
	}
	if !s.Intersects(NewAliasSet("b", "z")) || s.Intersects(NewAliasSet("z")) {
		t.Error("Intersects wrong")
	}
	u := s.Union(NewAliasSet("c"))
	if u.Key() != "a+b+c" {
		t.Errorf("Union = %q", u.Key())
	}
	if !s.Equal(NewAliasSet("a", "b")) || s.Equal(u) {
		t.Error("Equal wrong")
	}
	var empty AliasSet
	if !empty.IsEmpty() || empty.String() != "{}" || s.String() != "{a,b}" {
		t.Error("empty/String wrong")
	}
}

func TestAliasSetQuickUnionCommutes(t *testing.T) {
	f := func(a, b []byte) bool {
		toSet := func(xs []byte) AliasSet {
			names := make([]string, len(xs))
			for i, x := range xs {
				names[i] = string(rune('a' + int(x)%6))
			}
			return NewAliasSet(names...)
		}
		x, y := toSet(a), toSet(b)
		return x.Union(y).Key() == y.Union(x).Key() &&
			x.SubsetOf(x.Union(y)) && y.SubsetOf(x.Union(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// threeWay builds the running example of §2.3:
// SELECT SUM(R.a) FROM R,S,T WHERE F1(R)=F2(S) AND F3(R)=F4(T).
func threeWay(t *testing.T) *Query {
	t.Helper()
	q, err := NewBuilder("sec23").
		Rel("R", "R").Rel("S", "S").Rel("T", "T").
		Join(expr.HashMod("R.a", 1000), expr.Identity("S.k")).
		Join(expr.HashMod("R.b", 1000), expr.Identity("T.k")).
		Sum("R.a").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestBuilderAndAccessors(t *testing.T) {
	q := threeWay(t)
	if q.Aliases().Key() != "R+S+T" {
		t.Errorf("Aliases = %v", q.Aliases())
	}
	if len(q.Terms()) != 4 {
		t.Errorf("terms = %d, want 4", len(q.Terms()))
	}
	for i, term := range q.Terms() {
		if term.ID != i || q.Term(i) != term {
			t.Errorf("term ID mismatch at %d", i)
		}
	}
	if tb, ok := q.TableOf("S"); !ok || tb != "S" {
		t.Error("TableOf failed")
	}
	if _, ok := q.TableOf("Z"); ok {
		t.Error("TableOf of unknown alias should fail")
	}
	if q.Out.Kind != AggSum || q.Out.Attr != "R.a" {
		t.Error("aggregate wrong")
	}
}

func TestApplicability(t *testing.T) {
	q := threeWay(t)
	rs := NewAliasSet("R", "S")
	rt := NewAliasSet("R", "T")
	all := NewAliasSet("R", "S", "T")
	if !q.Joins[0].ApplicableAt(rs) || q.Joins[0].ApplicableAt(rt) {
		t.Error("join 0 applicability wrong")
	}
	if got := q.JoinsApplicableAt(all); len(got) != 2 {
		t.Errorf("JoinsApplicableAt(all) = %d preds", len(got))
	}
	newPreds := q.PredsNewAt(NewAliasSet("R"), NewAliasSet("S"))
	if len(newPreds) != 1 || newPreds[0].ID != 0 {
		t.Errorf("PredsNewAt(R,S) = %v", newPreds)
	}
	// Joining RS with T newly applies pred 1 only.
	newPreds = q.PredsNewAt(rs, NewAliasSet("T"))
	if len(newPreds) != 1 || newPreds[0].ID != 1 {
		t.Errorf("PredsNewAt(RS,T) = %v", newPreds)
	}
}

func TestConnected(t *testing.T) {
	q := threeWay(t)
	if !q.Connected(NewAliasSet("R"), NewAliasSet("S")) {
		t.Error("R-S should be connected")
	}
	if q.Connected(NewAliasSet("S"), NewAliasSet("T")) {
		t.Error("S-T is a pure cross product, not connected")
	}
}

func TestConnectedMultiTableUDF(t *testing.T) {
	// WHERE F1(R,S) = F2(T): R×S is "connected" because it makes F1 evaluable.
	q, err := NewBuilder("multi").
		Rel("R", "R").Rel("S", "S").Rel("T", "T").
		Join(expr.SumMod("R.a", "S.b", 100), expr.Identity("T.k")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if !q.Connected(NewAliasSet("R"), NewAliasSet("S")) {
		t.Error("R-S must be connected: it makes F1(R,S) evaluable")
	}
	if !q.Connected(NewAliasSet("R", "S"), NewAliasSet("T")) {
		t.Error("RS-T must be connected by the predicate")
	}
	if q.Connected(NewAliasSet("R"), NewAliasSet("T")) {
		t.Error("R-T alone enables nothing")
	}
}

func TestSelections(t *testing.T) {
	q, err := NewBuilder("sel").
		Rel("o1", "ord").Rel("o2", "ord").
		Join(expr.Identity("o1.cid"), expr.Identity("o2.cid")).
		Select(expr.ExtractDate("o1.when"), value.String("2019-01-11")).
		Select(expr.SumMod("o1.a", "o2.a", 10), value.Int(3)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	o1 := NewAliasSet("o1")
	if got := q.SelsAt(o1); len(got) != 1 || got[0].ID != 0 {
		t.Errorf("SelsAt(o1) = %v", got)
	}
	newSels := q.SelsNewAt(o1, NewAliasSet("o2"))
	if len(newSels) != 1 || newSels[0].ID != 1 {
		t.Errorf("SelsNewAt = %v", newSels)
	}
	if got := q.SelsAt(q.Aliases()); len(got) != 2 {
		t.Errorf("SelsAt(all) = %d", len(got))
	}
}

func TestValidateRejectsBadQueries(t *testing.T) {
	// Duplicate alias.
	_, err := NewBuilder("dup").Rel("R", "R").Rel("R", "R").Build()
	if err == nil {
		t.Error("duplicate alias must fail validation")
	}
	// Overlapping join sides.
	_, err = NewBuilder("overlap").
		Rel("R", "R").
		Join(expr.Identity("R.a"), expr.Identity("R.b")).
		Build()
	if err == nil {
		t.Error("overlapping join sides must fail validation")
	}
	// Unknown alias in predicate.
	_, err = NewBuilder("unknown").
		Rel("R", "R").Rel("S", "S").
		Join(expr.Identity("R.a"), expr.Identity("Z.b")).
		Build()
	if err == nil {
		t.Error("unknown alias must fail validation")
	}
	// Unknown alias in selection.
	_, err = NewBuilder("unksel").
		Rel("R", "R").
		Select(expr.Identity("Z.a"), value.Int(1)).
		Build()
	if err == nil {
		t.Error("unknown selection alias must fail validation")
	}
}

// TestValidateRejectsUnspellableAliases: Key joins names with '+' and
// statistics count an input size under "raw:" + alias, so an alias that is
// empty or holds either would let two statistics share one text.
func TestValidateRejectsUnspellableAliases(t *testing.T) {
	for _, alias := range []string{"", "x+y", "raw:c"} {
		_, err := NewBuilder("q").Rel("a", "r").Rel(alias, "s").Build()
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(alias)) {
			t.Errorf("alias %q: Build error %v, want one naming it", alias, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alias %q: MustBuild did not panic", alias)
				}
			}()
			NewBuilder("q").Rel("a", "r").Rel(alias, "s").MustBuild()
		}()
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild on invalid query must panic")
		}
	}()
	NewBuilder("bad").Rel("R", "R").Rel("R", "R").MustBuild()
}

func TestStringRendering(t *testing.T) {
	q := threeWay(t)
	if q.Joins[0].String() == "" || q.Joins[0].L.String() == "" {
		t.Error("String renderings should be non-empty")
	}
	q2 := NewBuilder("s").Rel("R", "R").
		Select(expr.Identity("R.a"), value.Int(5)).MustBuild()
	if got := q2.Sels[0].String(); got != "id(R.a) = 5" {
		t.Errorf("SelPred.String = %q", got)
	}
}
