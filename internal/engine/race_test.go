//go:build race

package engine

// raceDetector reports a build with the race detector, whose sync.Pool drops
// a random quarter of what it is given.
const raceDetector = true
