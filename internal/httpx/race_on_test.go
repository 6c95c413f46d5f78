//go:build race

package httpx

// raceEnabled reports whether the race detector is active; it makes
// sync.Pool drop items at random, so allocation-count guards skip.
const raceEnabled = true
