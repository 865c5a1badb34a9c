package thicket_test

import (
	"fmt"
	"time"

	"repro/internal/caliper"
	"repro/internal/thicket"
)

// ExampleEnsemble_Query builds a two-member ensemble and queries it with
// the Hatchet-style path language.
func ExampleEnsemble_Query() {
	mkProfile := func(proc string, fetch time.Duration) *caliper.Profile {
		var now time.Duration
		a := caliper.New(proc, caliper.ClockFunc(func() time.Duration { return now }))
		a.Begin("dyad_consume")
		a.Begin("dyad_fetch")
		now += fetch
		a.End("dyad_fetch")
		a.End("dyad_consume")
		return a.Profile()
	}
	ens := thicket.FromProfiles([]*caliper.Profile{
		mkProfile("consumer0", 10*time.Millisecond),
		mkProfile("consumer1", 30*time.Millisecond),
	})
	for _, n := range ens.MustQuery("//dyad_consume/dyad_fetch[mean>1ms]") {
		fmt.Printf("%s mean=%.0fms members=%d\n", n.Name, n.Total.Mean*1000, n.Total.N)
	}
	// Output:
	// dyad_fetch mean=20ms members=2
}
