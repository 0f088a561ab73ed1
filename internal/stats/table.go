package stats

// wkey is a statistic's word key: tag packs its kind (low byte, never zero)
// and term ID; expr and partner are membership words over the store's
// universe (an input size's expr is its alias's bit).
type wkey struct{ tag, expr, partner uint64 }

func tagOf(kind byte, term int) uint64 { return uint64(term)<<8 | uint64(kind) }

func (w wkey) kind() byte { return byte(w.tag) }

func (w wkey) term() int { return int(w.tag >> 8) }

// hash mixes the three words (splitmix64's finalizer over a combination), so
// that small, dense words spread over the slots.
func (w wkey) hash() uint64 {
	h := (w.tag ^ w.expr*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>29 ^ w.partner) * 0x94d049bb133111eb
	return h ^ h>>32
}

// table is one layer's word-keyed statistics: an open-addressing hash table
// with linear probing over a power-of-two array, at most three quarters
// full. An empty slot has a zero tag, and nothing is ever deleted — a layer
// only gains entries until it is cleared whole. filter has bit h>>58 set for
// the hash h of every key held, so most lookups of a key a layer lacks — the
// usual case on the way down a chain — end without a probe. On a lookup it is
// about three times as fast as a Go map with the same three-word key, which
// takes the generic hasher (see EXPERIMENTS.md).
type table struct {
	slots  []slot
	n      int
	filter uint64
}

type slot struct {
	k wkey
	v float64
}

// get looks k up; h is k.hash(), which a lookup down a chain of layers
// computes once.
func (t *table) get(k wkey, h uint64) (float64, bool) {
	if t.filter&(1<<(h>>58)) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.k == k {
			return s.v, true
		}
		if s.k.tag == 0 {
			return 0, false
		}
	}
}

func (t *table) set(k wkey, v float64) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.resize(2 * (t.n + 1))
	}
	h := k.hash()
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.k == k {
			s.v = v
			return
		}
		if s.k.tag == 0 {
			*s = slot{k, v}
			t.n++
			t.filter |= 1 << (h >> 58)
			return
		}
	}
}

// resize rehashes t into the smallest array that holds n entries.
func (t *table) resize(n int) {
	size := 8
	for 3*size < 4*n {
		size *= 2
	}
	old := t.slots
	t.slots, t.n, t.filter = make([]slot, size), 0, 0
	for _, s := range old {
		if s.k.tag != 0 {
			t.set(s.k, s.v)
		}
	}
}

// reset empties t and keeps its array.
func (t *table) reset() {
	if t.n > 0 {
		clear(t.slots)
		t.n, t.filter = 0, 0
	}
}
