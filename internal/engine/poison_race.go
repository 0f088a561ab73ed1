//go:build race

package engine

// Under the race detector every released slab is poisoned, so the -race runs
// of the packages above the engine also fail on a row read after its release.
func init() { poisonReleased = true }
