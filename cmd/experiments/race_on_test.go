//go:build race

package main

// raceEnabled reports whether the race detector is active; the digest test
// runs one case under it.
const raceEnabled = true
