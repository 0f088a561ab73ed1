// Package sketch implements the one-pass statistics machinery the paper's
// optimizers rely on: HyperLogLog distinct counting (Heule et al. style, with
// linear counting for small cardinalities; used by the Σ operator and the
// On-Demand option), and block sampling with Charikar et al.'s GEE
// distinct-value estimator (used by the Sampling option). An exact counter
// serves tests and the offline full-statistics baseline, and a Space-Saving
// heavy-hitters sketch is kept for skew-aware estimates.
package sketch

import (
	"fmt"
	"math"
	"math/bits"
)

// HLL is a HyperLogLog distinct-value counter. It is not safe for concurrent
// use; clone per goroutine and Merge afterwards.
//
// A sketch starts sparse: the registers it has touched are kept as
// index<<8|rho entries in a small open-addressed table, a sixteenth of the
// dense bytes, so a pass over few distinct values allocates and scans next to
// nothing. Once the table is half full the sketch turns dense for good.
type HLL struct {
	p         uint8 // precision: number of index bits
	m         int   // number of registers, 1<<p
	registers []uint8
	// sparse is the table of touched registers while registers is nil, slot
	// index&(len-1) first, 0 marking an empty slot; n counts its entries.
	sparse []uint32
	n      int
}

// NewHLL creates a HyperLogLog sketch with 2^p registers. Valid p is 4..18;
// p=14 gives ~0.8% relative error in ~16 KiB once dense and is the default
// used by the engine's Σ operator.
func NewHLL(p uint8) *HLL {
	if p < 4 || p > 18 {
		panic(fmt.Sprintf("sketch: HLL precision %d out of range [4,18]", p))
	}
	m := 1 << p
	h := &HLL{p: p, m: m}
	// 4-byte entries in m/64 slots take m/16 bytes; below 16 slots the table
	// would turn dense within a few adds anyway.
	if slots := m / 64; slots >= 16 {
		h.sparse = make([]uint32, slots)
	} else {
		h.registers = make([]uint8, m)
	}
	return h
}

// fmix64 is the MurmurHash3 finalizer; it decorrelates the register index
// bits from whatever upstream hash the caller used.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add records one 64-bit hashed item.
func (h *HLL) Add(hash uint64) {
	hash = fmix64(hash)
	idx := hash >> (64 - h.p)
	rest := hash<<h.p | 1<<(h.p-1) // guarantee a set bit to bound rho
	rho := uint8(bits.LeadingZeros64(rest)) + 1
	if h.registers != nil {
		if rho > h.registers[idx] {
			h.registers[idx] = rho
		}
		return
	}
	h.raise(uint32(idx), rho)
}

// raise lifts register idx to at least rho, in whichever form h is.
func (h *HLL) raise(idx uint32, rho uint8) {
	if h.registers != nil {
		h.registers[idx] = max(h.registers[idx], rho)
		return
	}
	mask := uint32(len(h.sparse) - 1)
	for i := idx & mask; ; i = (i + 1) & mask {
		switch e := h.sparse[i]; {
		case e == 0:
			h.sparse[i] = idx<<8 | uint32(rho)
			if h.n++; 2*h.n > len(h.sparse) {
				h.densify()
			}
			return
		case e>>8 == idx:
			if rho > uint8(e) {
				h.sparse[i] = idx<<8 | uint32(rho)
			}
			return
		}
	}
}

// densify turns a sparse sketch dense.
func (h *HLL) densify() {
	if h.registers != nil {
		return
	}
	h.registers = make([]uint8, h.m)
	for _, e := range h.sparse {
		if e != 0 {
			h.registers[e>>8] = uint8(e)
		}
	}
	h.sparse, h.n = nil, 0
}

// Merge folds another sketch of identical precision into h: o's touched
// registers one by one while o is sparse, register-wise once both are dense.
func (h *HLL) Merge(o *HLL) {
	if h.p != o.p {
		panic("sketch: cannot merge HLLs of different precision")
	}
	if o.registers == nil {
		for _, e := range o.sparse {
			if e != 0 {
				h.raise(e>>8, uint8(e))
			}
		}
		return
	}
	h.densify()
	for i, v := range o.registers {
		if v > h.registers[i] {
			h.registers[i] = v
		}
	}
}

// Estimate returns the estimated number of distinct items added.
func (h *HLL) Estimate() float64 {
	m := float64(h.m)
	if h.registers == nil {
		// At most m/128 registers are touched, so the register weights sum to
		// more than (1 − 1/128)·m however they round, the raw estimate stays
		// below 0.73·m, and the dense loop below would take the linear
		// counting branch on the same count of empty registers.
		return m * math.Log(m/float64(h.m-h.n))
	}
	sum := 0.0
	zeros := 0
	for _, v := range h.registers {
		sum += invPow2[v]
		if v == 0 {
			zeros++
		}
	}
	est := alpha(h.m) * m * m / sum
	// Small-range correction: fall back to linear counting while registers
	// remain empty (the regime where raw HLL is biased high).
	if est <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return est
}

// invPow2[v] is 2⁻ᵛ, the weight Estimate gives a register holding v. A
// register never exceeds 65 − p ≤ 61 (Add bounds rho), and every entry is an
// exact power of two, so a table lookup sums what 1/2ᵛ computed, bit for bit.
var invPow2 = func() (t [64]float64) {
	for v := range t {
		t[v] = 1 / float64(uint64(1)<<v)
	}
	return t
}()

func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// Exact counts distinct 64-bit hashes exactly; it exists for tests and for
// the offline full-statistics "Postgres" baseline where statistics are
// computed outside the measured window.
type Exact struct {
	seen map[uint64]struct{}
}

// NewExact creates an exact counter.
func NewExact() *Exact { return &Exact{seen: make(map[uint64]struct{})} }

// Add records one hashed item.
func (e *Exact) Add(hash uint64) { e.seen[hash] = struct{}{} }

// Estimate returns the exact distinct count.
func (e *Exact) Estimate() float64 { return float64(len(e.seen)) }
