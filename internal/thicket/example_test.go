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
		fetchNode := &caliper.Node{Name: "dyad_fetch", Visits: 1, Total: fetch}
		consume := &caliper.Node{Name: "dyad_consume", Visits: 1, Total: fetch, Children: []*caliper.Node{fetchNode}}
		return &caliper.Profile{Proc: proc, Root: &caliper.Node{Name: proc, Children: []*caliper.Node{consume}}}
	}
	ens := thicket.FromProfiles([]*caliper.Profile{
		mkProfile("consumer0", 10*time.Millisecond),
		mkProfile("consumer1", 30*time.Millisecond),
	})
	nodes, err := ens.Query("//dyad_consume/dyad_fetch[mean>1ms]")
	if err != nil {
		panic(err)
	}
	for _, n := range nodes {
		fmt.Printf("%s mean=%.0fms members=%d\n", n.Name, n.Total.Mean*1000, ens.Members())
	}
	// Output:
	// dyad_fetch mean=20ms members=2
}
