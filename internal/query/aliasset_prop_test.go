package query

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"monsoon/internal/expr"
)

// refSet is the sorted-[]string AliasSet the bitset replaced, kept here as
// the reference the replacement is pinned to.
type refSet []string

func newRef(names ...string) refSet {
	cp := append([]string(nil), names...)
	sort.Strings(cp)
	out := cp[:0]
	for i, n := range cp {
		if i == 0 || n != cp[i-1] {
			out = append(out, n)
		}
	}
	return refSet(out)
}

func (s refSet) key() string { return strings.Join(s, "+") }

func (s refSet) contains(a string) bool {
	i := sort.SearchStrings(s, a)
	return i < len(s) && s[i] == a
}

func (s refSet) subsetOf(o refSet) bool {
	for _, n := range s {
		if !o.contains(n) {
			return false
		}
	}
	return true
}

func (s refSet) intersects(o refSet) bool {
	for _, n := range s {
		if o.contains(n) {
			return true
		}
	}
	return false
}

func (s refSet) equal(o refSet) bool { return s.key() == o.key() }

func (s refSet) union(o refSet) refSet { return newRef(append(append([]string(nil), s...), o...)...) }

func (s refSet) String() string { return "{" + strings.Join(s, ",") + "}" }

// wideQuery mounts n relations r00..r<n-1> of table T, chained by n-1
// identity joins, through the Builder.
func wideQuery(n int) (*Query, error) {
	b := NewBuilder(fmt.Sprintf("wide%d", n))
	for i := 0; i < n; i++ {
		b.Rel(fmt.Sprintf("r%02d", i), "T")
	}
	for i := 1; i < n; i++ {
		b.Join(expr.Identity(fmt.Sprintf("r%02d.k", i-1)), expr.Identity(fmt.Sprintf("r%02d.k", i)))
	}
	return b.Build()
}

// checkSame compares every observer of one set against the reference.
func checkSame(t *testing.T, label string, got AliasSet, want refSet) {
	t.Helper()
	if got.Key() != want.key() {
		t.Fatalf("%s: Key = %q, want %q", label, got.Key(), want.key())
	}
	if names := got.Names(); len(names) != len(want) || (len(want) > 0 && !reflect.DeepEqual(names, []string(want))) {
		t.Fatalf("%s: Names = %v, want %v", label, names, want)
	}
	if got.Size() != len(want) || got.IsEmpty() != (len(want) == 0) {
		t.Fatalf("%s: Size/IsEmpty = %d/%v, want %d members", label, got.Size(), got.IsEmpty(), len(want))
	}
	if got.String() != want.String() {
		t.Fatalf("%s: String = %q, want %q", label, got.String(), want.String())
	}
	singles := got.Singletons()
	if len(singles) != len(want) {
		t.Fatalf("%s: %d singletons for %d members", label, len(singles), len(want))
	}
	for i, one := range singles {
		if one.Key() != want[i] || one.Size() != 1 || !one.SubsetOf(got) {
			t.Fatalf("%s: singleton %d = %v, want {%s}", label, i, one, want[i])
		}
	}
}

// TestAliasSetMatchesSortedSliceReference draws random pairs of sets — over a
// query's shared universe (one word of bits, up to the full 64), over
// universes of their own (NewAliasSet), and one of each — and requires every
// operation to agree with the sorted-slice implementation it replaced.
func TestAliasSetMatchesSortedSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{1, 2, 5, 13, MaxAliases} {
		q, err := wideQuery(n)
		if err != nil {
			t.Fatal(err)
		}
		all := q.Aliases().Names()
		singles := q.Aliases().Singletons()
		outsiders := []string{"zz", "a", "r07x"} // in no query universe

		// draw picks a random subset; shared sets are unions of the query's
		// own singletons, private ones come from NewAliasSet and may name
		// aliases the query does not have.
		draw := func(shared bool) (AliasSet, refSet) {
			var names []string
			switch rng.Intn(6) {
			case 0: // empty
			case 1:
				names = []string{all[rng.Intn(n)]}
			case 2:
				names = append(names, all...)
			default:
				for _, a := range all {
					if rng.Intn(3) == 0 {
						names = append(names, a)
					}
				}
			}
			if shared {
				var s AliasSet
				for i, a := range all {
					for _, m := range names {
						if m == a {
							s = s.Union(singles[i])
						}
					}
				}
				return s, newRef(names...)
			}
			if n < MaxAliases && rng.Intn(4) == 0 {
				names = append(names, outsiders[rng.Intn(len(outsiders))])
			}
			rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
			if len(names) > 0 && rng.Intn(3) == 0 {
				names = append(names, names[0]) // duplicates collapse
			}
			return NewAliasSet(names...), newRef(names...)
		}

		for trial := 0; trial < 400; trial++ {
			a, ra := draw(rng.Intn(2) == 0)
			b, rb := draw(rng.Intn(2) == 0)
			label := fmt.Sprintf("n=%d trial %d: a=%v b=%v", n, trial, ra, rb)
			checkSame(t, label+" [a]", a, ra)
			checkSame(t, label+" [b]", b, rb)
			checkSame(t, label+" [a∪b]", a.Union(b), ra.union(rb))
			checkSame(t, label+" [b∪a]", b.Union(a), ra.union(rb))
			if got, want := a.SubsetOf(b), ra.subsetOf(rb); got != want {
				t.Fatalf("%s: SubsetOf = %v, want %v", label, got, want)
			}
			if got, want := a.Intersects(b), ra.intersects(rb); got != want {
				t.Fatalf("%s: Intersects = %v, want %v", label, got, want)
			}
			if got, want := a.Equal(b), ra.equal(rb); got != want {
				t.Fatalf("%s: Equal = %v, want %v", label, got, want)
			}
			probe := all[rng.Intn(n)]
			if rng.Intn(4) == 0 {
				probe = outsiders[rng.Intn(len(outsiders))]
			}
			if got, want := a.Contains(probe), ra.contains(probe); got != want {
				t.Fatalf("%s: Contains(%q) = %v, want %v", label, probe, got, want)
			}
			// The query's predicate helpers must see a foreign-universe set
			// exactly as they see its shared twin.
			if got, want := q.Connected(a, b), q.Connected(q.Own(a), q.Own(b)); got != want {
				t.Fatalf("%s: Connected differs across universes: %v vs %v", label, got, want)
			}
		}
	}
}

// TestWideQueryLimit pins both sides of the alias-universe limit: MaxAliases
// relations build and behave, one more is a typed error from Build and from
// Validate — not a panic, not a shift that wraps.
func TestWideQueryLimit(t *testing.T) {
	q, err := wideQuery(MaxAliases)
	if err != nil {
		t.Fatalf("%d relations must build: %v", MaxAliases, err)
	}
	full := q.Aliases()
	if full.Size() != MaxAliases || !q.Joins[MaxAliases-2].Aliases().SubsetOf(full) {
		t.Fatalf("full set of the widest query is wrong: size %d", full.Size())
	}
	last := full.Singletons()[MaxAliases-1]
	if last.Key() != "r63" || !full.Contains("r63") || last.Intersects(full.Singletons()[0]) {
		t.Fatalf("top bit misbehaves: %v", last)
	}

	_, err = wideQuery(MaxAliases + 1)
	var tooMany *TooManyRelationsError
	if !errors.As(err, &tooMany) {
		t.Fatalf("%d relations: err = %v, want a *TooManyRelationsError", MaxAliases+1, err)
	}
	if tooMany.Relations != MaxAliases+1 || !strings.Contains(err.Error(), "limit is 64") {
		t.Fatalf("error carries the wrong numbers: %v", err)
	}
	hand := &Query{Name: "by-hand"}
	for i := 0; i <= MaxAliases; i++ {
		hand.Rels = append(hand.Rels, RelRef{Alias: fmt.Sprintf("h%02d", i), Table: "T"})
	}
	if err := hand.Validate(); !errors.As(err, &tooMany) {
		t.Fatalf("Validate on a hand-built wide query: err = %v, want a *TooManyRelationsError", err)
	}
}
