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
type HLL struct {
	p         uint8 // precision: number of index bits
	m         int   // number of registers, 1<<p
	registers []uint8
}

// NewHLL creates a HyperLogLog sketch with 2^p registers. Valid p is 4..18;
// p=14 gives ~0.8% relative error in ~16 KiB and is the default used by the
// engine's Σ operator.
func NewHLL(p uint8) *HLL {
	if p < 4 || p > 18 {
		panic(fmt.Sprintf("sketch: HLL precision %d out of range [4,18]", p))
	}
	m := 1 << p
	return &HLL{p: p, m: m, registers: make([]uint8, m)}
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
	if rho > h.registers[idx] {
		h.registers[idx] = rho
	}
}

// Merge folds another sketch of identical precision into h.
func (h *HLL) Merge(o *HLL) {
	if h.p != o.p {
		panic("sketch: cannot merge HLLs of different precision")
	}
	for i, v := range o.registers {
		if v > h.registers[i] {
			h.registers[i] = v
		}
	}
}

// Estimate returns the estimated number of distinct items added.
func (h *HLL) Estimate() float64 {
	sum := 0.0
	zeros := 0
	for _, v := range h.registers {
		sum += invPow2[v]
		if v == 0 {
			zeros++
		}
	}
	m := float64(h.m)
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
