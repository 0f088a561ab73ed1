package sketch

import "testing"

// TestEstimatorEdgeCases is the table-driven edge grid for the sample-based
// distinct-count estimator. The load-bearing row is the empty sample: GEE
// must report 0 distinct values (no evidence means no phantom value — a
// spurious 1 turns every empty-vs-nonempty comparison downstream into a +Inf
// q-error), while the ≥1 clamp still applies the moment at least one value
// was seen.
func TestEstimatorEdgeCases(t *testing.T) {
	singleton := map[uint64]int{42: 1}
	hot := map[uint64]int{7: 50}
	mixed := map[uint64]int{1: 1, 2: 1, 3: 48}
	for _, tc := range []struct {
		name       string
		freqs      map[uint64]int
		sampleSize int
		population int64
		wantZero   bool // exact-zero expectation (empty-sample contract)
		min, max   float64
	}{
		{name: "nil sample", freqs: nil, sampleSize: 0, population: 100, wantZero: true},
		{name: "empty map", freqs: map[uint64]int{}, sampleSize: 0, population: 100, wantZero: true},
		{name: "zero sampleSize with stale freqs", freqs: singleton, sampleSize: 0, population: 100, wantZero: true},
		{name: "empty freqs with positive sampleSize", freqs: map[uint64]int{}, sampleSize: 10, population: 100, wantZero: true},
		{name: "single row sample", freqs: singleton, sampleSize: 1, population: 1, min: 1, max: 1},
		{name: "one hot value keeps >=1 clamp", freqs: hot, sampleSize: 50, population: 1e6, min: 1, max: 1e6},
		// Population smaller than the sample is an inconsistent input: GEE
		// caps at the population.
		{name: "population smaller than sample", freqs: mixed, sampleSize: 50, population: 2, min: 0, max: 3},
		{name: "full sample is exact-ish", freqs: mixed, sampleSize: 50, population: 50, min: 3, max: 50},
	} {
		got := GEE(tc.freqs, tc.sampleSize, tc.population)
		if tc.wantZero {
			if got != 0 {
				t.Errorf("GEE/%s = %v, want exactly 0", tc.name, got)
			}
			continue
		}
		if got < tc.min || got > tc.max {
			t.Errorf("GEE/%s = %v, want in [%v, %v]", tc.name, got, tc.min, tc.max)
		}
	}
}
