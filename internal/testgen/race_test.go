//go:build race

package testgen

// raceEnabled reports whether the race detector is on; its
// instrumentation allocates in the solver's search, so a pass's
// allocation count means nothing under it.
const raceEnabled = true
