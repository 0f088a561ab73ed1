package stats

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"monsoon/internal/query"
)

// The word key space: sets over the universe a store is bound to, the same
// sets built over universes of their own, sets naming an alias the universe
// lacks, and the texts of all of them plus the input-size keys of single
// aliases.
var (
	wordUniverse = query.NewAliasSet("R", "S", "T")
	// Bind targets: the universe itself, another with its names, and two
	// with other names.
	wordBinds = []query.AliasSet{wordUniverse, query.NewAliasSet("T", "S", "R"),
		query.NewAliasSet("R", "S"), query.NewAliasSet("R", "S", "T", "Z")}
	wordSets = []query.AliasSet{
		{},
		wordUniverse.Subset(1), wordUniverse.Subset(2), wordUniverse.Subset(3), wordUniverse.Subset(7),
		query.NewAliasSet("S", "R"), // {R,S} over a universe of its own
		query.NewAliasSet("T"),
		query.NewAliasSet("R", "Z"), // names an alias outside the universe
		query.NewAliasSet("Z"),
	}
	// Texts naming aliases no set has, one sorting before every other name:
	// widening to it moves every bit of the universe.
	wordTexts = []string{`q"uote`, "B+R+" + `q"uote`}
	wordTerms = []int{0, 1, 7}
)

// wordExprs is every expression text the check looks up: the sets' keys and
// texts naming aliases no set has.
func wordExprs() []string {
	var out []string
	for _, e := range wordSets {
		out = append(out, e.Key())
	}
	return append(out, wordTexts...)
}

// wordCounts is every count text the check looks up: the expressions and
// the input-size keys of single aliases, one of them outside every set.
func wordCounts() []string {
	out := []string{RawKey("B"), RawKey("R"), RawKey("T"), RawKey("Z"), RawKey(`q"uote`)}
	return append(out, wordExprs()...)
}

// checkWords compares every lookup of s, by set and by text, and every
// rendering of it, with the string-keyed reference r.
func checkWords(t *testing.T, label string, s *Store, r *refStore) {
	t.Helper()
	for _, e := range wordCounts() {
		gc, gok := s.Count(e)
		if wc, wok := r.counts[e]; gc != wc || gok != wok {
			t.Fatalf("%s: Count(%q) = %v,%v want %v,%v", label, e, gc, gok, wc, wok)
		}
	}
	exprs := wordExprs()
	for _, e := range exprs {
		for _, term := range wordTerms {
			gm, gok := s.Measured(term, e)
			if wm, wok := r.measured[DKey{term, e}]; gm != wm || gok != wok {
				t.Fatalf("%s: Measured(%d,%q) = %v,%v want %v,%v", label, term, e, gm, gok, wm, wok)
			}
			for _, p := range exprs {
				gd, gok := s.Assumed(term, e, p)
				if wd, wok := r.assumed[CKey{term, e, p}]; gd != wd || gok != wok {
					t.Fatalf("%s: Assumed(%d,%q|%q) = %v,%v want %v,%v", label, term, e, p, gd, gok, wd, wok)
				}
			}
		}
	}
	for _, e := range wordSets {
		gc, gok := s.CountOf(e)
		if wc, wok := r.counts[e.Key()]; gc != wc || gok != wok {
			t.Fatalf("%s: CountOf(%v) = %v,%v want %v,%v", label, e, gc, gok, wc, wok)
		}
		gc, gok = s.RawCountOf(e)
		if wc, wok := r.counts[RawKey(e.Key())]; gc != wc || gok != wok {
			t.Fatalf("%s: RawCountOf(%v) = %v,%v want %v,%v", label, e, gc, gok, wc, wok)
		}
		for _, term := range wordTerms {
			gm, gok := s.MeasuredOf(term, e)
			if wm, wok := r.measured[DKey{term, e.Key()}]; gm != wm || gok != wok || s.HasMeasuredOf(term, e) != wok {
				t.Fatalf("%s: MeasuredOf(%d,%v) = %v,%v want %v,%v", label, term, e, gm, gok, wm, wok)
			}
			for _, p := range wordSets {
				gd, gok := s.AssumedOf(term, e, p)
				if wd, wok := r.assumed[CKey{term, e.Key(), p.Key()}]; gd != wd || gok != wok {
					t.Fatalf("%s: AssumedOf(%d,%v|%v) = %v,%v want %v,%v", label, term, e, p, gd, gok, wd, wok)
				}
			}
		}
	}
	if s.CountEntries() != len(r.counts) || s.MeasuredEntries() != len(r.measured) || s.AssumedEntries() != len(r.assumed) {
		t.Fatalf("%s: entries %d/%d/%d want %d/%d/%d", label,
			s.CountEntries(), s.MeasuredEntries(), s.AssumedEntries(), len(r.counts), len(r.measured), len(r.assumed))
	}
	if got, want := string(s.AppendBucketSignature([]byte("prefix|"))), "prefix|"+r.signature(); got != want {
		t.Fatalf("%s: AppendBucketSignature\n got %s\nwant %s", label, got, want)
	}
	if got, want := s.BucketSignature(), r.signature(); got != want {
		t.Fatalf("%s: BucketSignature\n got %s\nwant %s", label, got, want)
	}
	if got, want := s.String(), r.String(); got != want {
		t.Fatalf("%s: String\n got %s\nwant %s", label, got, want)
	}
}

// TestWordStoreMatchesStringReference drives families of stores through
// random writes and reads — by alias set and by text, before and after
// binding, over the bound universe and over foreign ones, naming aliases the
// store's universe lacks — and through overlays, rebases, live rebases,
// clones, merges, assumed-drops and binds to universes with the same or
// other names, mirroring each on the flat string-keyed reference. After
// every step every store of every family must answer every lookup, count
// and rendering exactly as its reference: keying by words, and widening the
// universe they are over, is invisible.
func TestWordStoreMatchesStringReference(t *testing.T) {
	type pair struct {
		s       *Store
		r       *refStore
		overlay bool
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		first := New()
		// Written before the store is bound to any universe.
		first.SetCount(RawKey("R"), 1000)
		first.SetMeasured(0, "R+S", 40)
		first.SetAssumed(1, "T", "R+Z", 3)
		ref := newRef()
		ref.counts[RawKey("R")] = 1000
		ref.measured[DKey{0, "R+S"}] = 40
		ref.assumed[CKey{1, "T", "R+Z"}] = 3
		family := []*pair{{s: first, r: ref}}
		pick := func() *pair { return family[rng.Intn(len(family))] }
		exprs, counts := wordExprs(), wordCounts()
		for step := 0; step < 70; step++ {
			p := pick()
			e, pe := wordSets[rng.Intn(len(wordSets))], wordSets[rng.Intn(len(wordSets))]
			text, ptext := exprs[rng.Intn(len(exprs))], exprs[rng.Intn(len(exprs))]
			ctext := counts[rng.Intn(len(counts))]
			term, v := wordTerms[rng.Intn(len(wordTerms))], propValue(rng)
			var op string
			switch rng.Intn(16) {
			case 0:
				op = "SetCountOf"
				p.s.SetCountOf(e, v)
				p.r.counts[e.Key()] = v
			case 1:
				op = "SetCount"
				p.s.SetCount(ctext, v)
				p.r.counts[ctext] = v
			case 2:
				op = "SetMeasuredOf"
				p.s.SetMeasuredOf(term, e, v)
				p.r.measured[DKey{term, e.Key()}] = v
			case 3:
				op = "SetMeasured"
				p.s.SetMeasured(term, text, v)
				p.r.measured[DKey{term, text}] = v
			case 4, 5:
				op = "SetAssumedOf"
				p.s.SetAssumedOf(term, e, pe, v)
				p.r.assumed[CKey{term, e.Key(), pe.Key()}] = v
			case 6:
				op = "SetAssumed"
				p.s.SetAssumed(term, text, ptext, v)
				p.r.assumed[CKey{term, text, ptext}] = v
			case 7, 8:
				op = "Bind"
				p.s.Bind(wordBinds[rng.Intn(len(wordBinds))])
			case 9:
				op = "Overlay"
				if rng.Intn(2) == 0 {
					p.s.BucketSignature()
				}
				family = append(family, &pair{s: p.s.Overlay(), r: p.r.clone(), overlay: true})
			case 10:
				op = "Clone"
				family = append(family, &pair{s: p.s.Clone(), r: p.r.clone()})
			case 11:
				op = "MergeFrom"
				src := pick()
				if src == p {
					continue
				}
				p.s.MergeFrom(src.s)
				p.r.mergeFrom(src.r)
			case 12:
				op = "DropAssumed"
				p.s.DropAssumed()
				p.r.assumed = map[CKey]float64{}
			case 13:
				base := pick()
				if !p.overlay || base == p {
					continue
				}
				op = "Rebase"
				p.s.Rebase(base.s)
				p.r = base.r.clone()
			case 14, 15:
				// A live overlay is read and written between two writes of the
				// overlay it lies on, then rebased.
				base := pick()
				if !p.overlay || !base.overlay || base == p {
					continue
				}
				op = "RebaseLive"
				p.s.RebaseLive(base.s)
				live := base.r.clone()
				checkWords(t, fmt.Sprintf("seed %d step %d live overlay", seed, step), p.s, live)
				p.s.SetCountOf(e, v)
				live.counts[e.Key()] = v
				p.s.SetAssumedOf(term, e, pe, v)
				live.assumed[CKey{term, e.Key(), pe.Key()}] = v
				checkWords(t, fmt.Sprintf("seed %d step %d live overlay written", seed, step), p.s, live)
				base.s.SetCount(ctext, v)
				base.r.counts[ctext] = v
				p.s.Rebase(base.s)
				p.r = base.r.clone()
			}
			for i, m := range family {
				checkWords(t, fmt.Sprintf("seed %d step %d after %s, store %d of %d", seed, step, op, i, len(family)), m.s, m.r)
			}
		}
	}
}

// TestTextOutsideKeyGrammarPanics: the string methods accept a text only as
// the Key of an alias set or, for a count, the RawKey of one alias, and a
// term ID only if it fits a key. Anything else is a program error, like an
// alias set past query.MaxAliases, and panics with a message naming it — on
// an unbound store and a bound one, reading or writing.
func TestTextOutsideKeyGrammarPanics(t *testing.T) {
	notKeys := []string{"S+R", "R+R", "R+", "+R", "R++S"}
	type call struct {
		name, input string
		fn          func(s *Store)
	}
	var calls []call
	for _, text := range append(notKeys, "raw:R+S", "raw:") {
		calls = append(calls,
			call{"SetCount", text, func(s *Store) { s.SetCount(text, 1) }},
			call{"Count", text, func(s *Store) { s.Count(text) }})
	}
	for _, text := range append(notKeys, "raw:R") {
		calls = append(calls,
			call{"SetMeasured", text, func(s *Store) { s.SetMeasured(0, text, 1) }},
			call{"Measured", text, func(s *Store) { s.Measured(0, text) }},
			call{"SetAssumed partner", text, func(s *Store) { s.SetAssumed(0, "R", text, 1) }})
	}
	calls = append(calls,
		call{"SetMeasured", "-1", func(s *Store) { s.SetMeasured(-1, "R", 1) }},
		call{"Measured", "-1", func(s *Store) { s.Measured(-1, "R") }},
		call{"MeasuredOf", "-1", func(s *Store) { s.MeasuredOf(-1, wordUniverse.Subset(1)) }},
		call{"SetAssumedOf", "-1", func(s *Store) { s.SetAssumedOf(-1, wordUniverse.Subset(1), wordUniverse.Subset(2), 1) }})
	for _, bound := range []bool{false, true} {
		for _, c := range calls {
			s := New()
			if bound {
				s.Bind(wordUniverse)
			}
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, c.input) || msg == "" {
						t.Errorf("bound=%v %s(%q): panic %q, want one naming the input", bound, c.name, c.input, msg)
					}
				}()
				c.fn(s)
			}()
		}
	}
}
