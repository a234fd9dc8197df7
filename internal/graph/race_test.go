//go:build race

package graph

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
