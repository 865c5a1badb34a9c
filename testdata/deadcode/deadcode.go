// Package deadcode calls the exported names of its internal package, as
// the module's commands do, so that only the gate's cases there are
// reported.
package deadcode

import "repro/testdata/deadcode/internal/fix"

// Run uses fix.
func Run() string {
	var c fix.Counter
	c.Add(1)
	return fix.Use() + string(rune(c.Total()))
}
