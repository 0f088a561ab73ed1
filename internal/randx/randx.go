// Package randx provides the deterministic random machinery the benchmarks
// and the Monsoon priors need beyond math/rand: Gamma and Beta variates
// (Marsaglia–Tsang), bounded Zipf sampling, and convenience helpers. All
// functions take an explicit *rand.Rand so callers stay reproducible.
package randx

import (
	"math"
	"math/rand"
)

// New returns a rand.Rand seeded through SplitMix64 so that nearby integer
// seeds produce decorrelated streams.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(uint64(seed)))))
}

// splitmix64 is the standard SplitMix64 finalizer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Derive produces a child seed from a parent seed and a stream label, so that
// independent subsystems seeded from one master seed do not share streams.
func Derive(seed int64, label string) int64 {
	h := uint64(seed)
	for _, c := range label {
		h = splitmix64(h ^ uint64(c))
	}
	return int64(h)
}

// Gamma draws a Gamma(alpha, 1) variate using the Marsaglia–Tsang method.
// Alpha must be positive.
func Gamma(r *rand.Rand, alpha float64) float64 {
	if alpha <= 0 {
		panic("randx: Gamma alpha must be positive")
	}
	if alpha < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return Gamma(r, alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u == 0 {
			continue
		}
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta draws a Beta(a, b) variate via two Gamma draws.
func Beta(r *rand.Rand, a, b float64) float64 {
	x := Gamma(r, a)
	y := Gamma(r, b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// BetaPDF evaluates the Beta(a,b) density at x in (0,1). It is used to emit
// the Figure 2 curves and in tests; it is not on any hot path.
func BetaPDF(x, a, b float64) float64 {
	if x <= 0 || x >= 1 {
		return 0
	}
	logB, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	logB = logB + lb - lab
	return math.Exp((a-1)*math.Log(x) + (b-1)*math.Log(1-x) - logB)
}

// Zipf draws values in [1, n] with P(k) proportional to 1/k^s. For s == 0 it
// degenerates to uniform. Instances precompute the CDF once, so construction
// is O(n) and sampling is O(log n).
type Zipf struct {
	n   int64
	cdf []float64
}

// NewZipf builds a bounded Zipf sampler over {1..n} with exponent s >= 0.
func NewZipf(n int64, s float64) *Zipf {
	if n <= 0 {
		panic("randx: Zipf n must be positive")
	}
	z := &Zipf{n: n, cdf: make([]float64, n)}
	sum := 0.0
	for k := int64(1); k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		z.cdf[k-1] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// Draw samples one value in [1, n].
func (z *Zipf) Draw(r *rand.Rand) int64 {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int64(lo + 1)
}

// UniformInt draws an integer uniformly from [1, n].
func UniformInt(r *rand.Rand, n int64) int64 {
	if n <= 1 {
		return 1
	}
	return 1 + r.Int63n(n)
}
