package sketch

import (
	"math"
	"testing"

	"monsoon/internal/randx"
	"monsoon/internal/value"
)

func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 50000, 500000} {
		h := NewHLL(14)
		for i := 0; i < n; i++ {
			h.Add(value.Int(int64(i)).Hash())
		}
		est := h.Estimate()
		relErr := math.Abs(est-float64(n)) / float64(n)
		if relErr > 0.05 {
			t.Errorf("HLL(p=14) on %d distinct: est %.0f, rel err %.3f", n, est, relErr)
		}
	}
}

func TestHLLDuplicatesDontInflate(t *testing.T) {
	h := NewHLL(12)
	for pass := 0; pass < 10; pass++ {
		for i := 0; i < 1000; i++ {
			h.Add(value.Int(int64(i)).Hash())
		}
	}
	est := h.Estimate()
	if math.Abs(est-1000) > 100 {
		t.Errorf("HLL with duplicates: est %.0f, want ~1000", est)
	}
}

func TestHLLMerge(t *testing.T) {
	a, b := NewHLL(12), NewHLL(12)
	for i := 0; i < 5000; i++ {
		a.Add(value.Int(int64(i)).Hash())
	}
	for i := 2500; i < 7500; i++ {
		b.Add(value.Int(int64(i)).Hash())
	}
	a.Merge(b)
	est := a.Estimate()
	if math.Abs(est-7500)/7500 > 0.06 {
		t.Errorf("merged HLL est %.0f, want ~7500", est)
	}
}

func TestHLLMergePrecisionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("merging mismatched precisions must panic")
		}
	}()
	NewHLL(12).Merge(NewHLL(13))
}

func TestHLLBadPrecisionPanics(t *testing.T) {
	for _, p := range []uint8{0, 3, 19} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHLL(%d) must panic", p)
				}
			}()
			NewHLL(p)
		}()
	}
}

func TestHLLEmpty(t *testing.T) {
	if est := NewHLL(10).Estimate(); est != 0 {
		t.Errorf("empty HLL estimate = %v, want 0", est)
	}
}

func TestExact(t *testing.T) {
	e := NewExact()
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 123; i++ {
			e.Add(value.Int(int64(i)).Hash())
		}
	}
	if e.Estimate() != 123 {
		t.Errorf("exact counter = %v, want 123", e.Estimate())
	}
}

func TestGEEBounds(t *testing.T) {
	// All-singletons sample: D should be sqrt(n/r)*r, capped by n.
	freqs := map[uint64]int{}
	for i := uint64(0); i < 100; i++ {
		freqs[i] = 1
	}
	d := GEE(freqs, 100, 10000)
	want := math.Sqrt(10000.0/100.0) * 100
	if math.Abs(d-want) > 1e-9 {
		t.Errorf("GEE all-singletons = %v, want %v", d, want)
	}
	// One hot value: D should stay small.
	d = GEE(map[uint64]int{7: 100}, 100, 10000)
	if d != 1 {
		t.Errorf("GEE single hot value = %v, want 1", d)
	}
	// Cap at population size.
	d = GEE(freqs, 100, 120)
	if d > 120 {
		t.Errorf("GEE exceeded population: %v", d)
	}
	if GEE(nil, 0, 100) != 0 {
		t.Error("GEE on empty sample should return 0, not a phantom distinct value")
	}
}

func TestEstimatorsOnZipfData(t *testing.T) {
	// Generate a skewed population, take a uniform sample, check the
	// estimator lands within a loose factor of the truth.
	rng := randx.New(37)
	z := randx.NewZipf(2000, 1.0)
	population := make([]uint64, 100000)
	truth := map[uint64]bool{}
	for i := range population {
		v := uint64(z.Draw(rng))
		population[i] = v
		truth[v] = true
	}
	sampleSize := 5000
	freqs := map[uint64]int{}
	for i := 0; i < sampleSize; i++ {
		freqs[population[rng.Intn(len(population))]]++
	}
	want := float64(len(truth))
	if got := GEE(freqs, sampleSize, int64(len(population))); got < want/10 || got > want*10 {
		t.Errorf("GEE estimate %v too far from truth %v", got, want)
	}
}

func TestBlockSample(t *testing.T) {
	rng := randx.New(41)
	s := BlockSample(1000, 100, 250, rng)
	if len(s) < 250 || len(s) > 300 {
		t.Errorf("block sample size %d, want 250..300", len(s))
	}
	seen := map[int]bool{}
	for _, i := range s {
		if i < 0 || i >= 1000 {
			t.Fatalf("index out of bounds: %d", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
	// Target >= n returns everything.
	all := BlockSample(50, 10, 100, rng)
	if len(all) != 50 {
		t.Errorf("oversized target should return all rows, got %d", len(all))
	}
	if BlockSample(0, 10, 10, rng) != nil {
		t.Error("empty table should sample nil")
	}
}

func TestBlockSampleZeroBlockSize(t *testing.T) {
	rng := randx.New(43)
	s := BlockSample(100, 0, 10, rng)
	if len(s) < 10 {
		t.Errorf("blockSize 0 should degrade to row sampling, got %d rows", len(s))
	}
}

// TestHLLEstimateMatchesFormula holds Estimate's table of register weights to
// the formula it replaced, 1/float64(1<<v) per register summed in register
// order, bit for bit, on random fills at every precision: sparse fills that
// take the linear-counting branch, full ones that do not, and registers at
// the largest value Add can write.
func TestHLLEstimateMatchesFormula(t *testing.T) {
	formula := func(h *HLL) float64 {
		sum, zeros := 0.0, 0
		for _, v := range h.registers {
			sum += 1 / float64(uint64(1)<<v)
			if v == 0 {
				zeros++
			}
		}
		m := float64(h.m)
		est := alpha(h.m) * m * m / sum
		if est <= 2.5*m && zeros > 0 {
			return m * math.Log(m/float64(zeros))
		}
		return est
	}
	rng := randx.New(35)
	for p := uint8(4); p <= 18; p++ {
		top := 65 - int(p) // the largest rho Add can record
		for _, fill := range []int{1, 10, 50, 100} {
			h := NewHLL(p)
			for i := range h.registers {
				if rng.Intn(100) < fill {
					h.registers[i] = uint8(1 + rng.Intn(top))
				}
			}
			h.registers[rng.Intn(h.m)] = uint8(top)
			if got, want := h.Estimate(), formula(h); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("p=%d fill %d%%: Estimate %v (%#x), the formula %v (%#x)", p, fill, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
