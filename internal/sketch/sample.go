package sketch

import (
	"math"
	"math/rand"
)

// GEE implements the Guaranteed-Error Estimator of Charikar et al. for
// estimating the number of distinct values in a population of size n from a
// uniform sample: D = sqrt(n/r) * f1 + sum_{j>=2} f_j, where f_j is the
// number of values appearing exactly j times in a sample of size r.
func GEE(sampleFreqs map[uint64]int, sampleSize int, populationSize int64) float64 {
	// An empty sample carries no evidence of any value: report 0 distinct
	// rather than inventing a phantom one (the ≥1 clamp below applies only
	// once at least one value was seen). Empty inputs otherwise feed +Inf
	// q-errors into every empty-vs-nonempty comparison downstream.
	if sampleSize <= 0 || len(sampleFreqs) == 0 {
		return 0
	}
	f1 := 0
	higher := 0
	for _, c := range sampleFreqs {
		if c == 1 {
			f1++
		} else {
			higher++
		}
	}
	scale := math.Sqrt(float64(populationSize) / float64(sampleSize))
	d := scale*float64(f1) + float64(higher)
	if d < 1 {
		d = 1
	}
	if d > float64(populationSize) {
		d = float64(populationSize)
	}
	return d
}

// BlockSample returns the row indices of a block-based sample: whole blocks
// of blockSize consecutive rows are chosen until at least target rows are
// collected (or the table is exhausted). This mirrors the paper's Sampling
// option, which samples 2% of each base table block-wise up to a cap.
func BlockSample(n int, blockSize, target int, rng *rand.Rand) []int {
	if n <= 0 || target <= 0 {
		return nil
	}
	if target >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	if blockSize <= 0 {
		blockSize = 1
	}
	numBlocks := (n + blockSize - 1) / blockSize
	order := rng.Perm(numBlocks)
	out := make([]int, 0, target+blockSize)
	for _, b := range order {
		start := b * blockSize
		end := start + blockSize
		if end > n {
			end = n
		}
		for i := start; i < end; i++ {
			out = append(out, i)
		}
		if len(out) >= target {
			break
		}
	}
	return out
}
