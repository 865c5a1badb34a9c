//go:build !race

package critpath

// raceEnabled reports whether the race detector is active; allocation-count
// assertions are skipped under it (instrumentation allocates).
const raceEnabled = false
