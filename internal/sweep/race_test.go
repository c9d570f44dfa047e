//go:build race

package sweep

// raceEnabled reports whether the race detector is on; under it sync.Pool
// drops what it is handed at random, so a pooled read may allocate.
const raceEnabled = true
