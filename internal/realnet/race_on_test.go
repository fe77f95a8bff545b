//go:build race

package realnet

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so allocation fences over pooled paths do not hold.
const raceEnabled = true
