// Package sketch implements the one-pass statistics machinery the paper's
// optimizers rely on: HyperLogLog distinct counting (Heule et al. style, used
// by the Σ operator and the On-Demand option), linear probabilistic counting
// (Whang et al.), reservoir sampling (Vitter's Algorithm R), and the
// Charikar et al. GEE family of sample-based distinct-value estimators (used
// by the Sampling option). An exact counter is provided for tests and for the
// offline full-statistics baseline.
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

// LinearCounter is Whang et al.'s linear probabilistic counter: a bitmap of
// size m; the estimate is m * ln(m / zeroes). It is accurate while the load
// factor stays moderate and is kept as the paper's reference [44] technique.
type LinearCounter struct {
	bitmap []uint64
	m      int
}

// NewLinearCounter creates a counter with m bits (rounded up to a multiple of
// 64).
func NewLinearCounter(m int) *LinearCounter {
	if m <= 0 {
		panic("sketch: LinearCounter size must be positive")
	}
	words := (m + 63) / 64
	return &LinearCounter{bitmap: make([]uint64, words), m: words * 64}
}

// Add records one hashed item.
func (l *LinearCounter) Add(hash uint64) {
	pos := hash % uint64(l.m)
	l.bitmap[pos/64] |= 1 << (pos % 64)
}

// Estimate returns the estimated distinct count.
func (l *LinearCounter) Estimate() float64 {
	ones := 0
	for _, w := range l.bitmap {
		ones += bits.OnesCount64(w)
	}
	zeros := l.m - ones
	if zeros == 0 {
		// Saturated: the estimator diverges; report the best lower bound.
		return float64(l.m) * math.Log(float64(l.m))
	}
	return float64(l.m) * math.Log(float64(l.m)/float64(zeros))
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

// Counter is the interface shared by all distinct counters in this package.
type Counter interface {
	Add(hash uint64)
	Estimate() float64
}

var (
	_ Counter = (*HLL)(nil)
	_ Counter = (*LinearCounter)(nil)
	_ Counter = (*Exact)(nil)
)
