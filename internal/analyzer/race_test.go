//go:build race

package analyzer

// raceEnabled reports whether the race detector is on; its
// instrumentation allocates, so an allocation count means nothing under it.
const raceEnabled = true
