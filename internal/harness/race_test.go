//go:build race

package harness

// raceEnabled reports whether the race detector is compiled in; it
// instruments allocations, so allocation gates skip under it.
const raceEnabled = true
