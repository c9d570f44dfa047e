//go:build !race

package testgen

const raceEnabled = false
