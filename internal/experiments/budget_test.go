package experiments

import (
	"testing"

	"repro/internal/core"
)

// Events fired by each figure's quick sweep at the benchmark's paper-figs
// protocol: one repetition, eight frames per pair, one worker, the seed
// the benchmark derives from its default --seed 1. Like allocations, the
// count is deterministic, so each is pinned exactly: it is the size of the
// simulated timeline, which only a deliberate change of the model or of
// how the kernel books it may move.
func TestRunEventBudget(t *testing.T) {
	want := []struct {
		id     string
		events int64
	}{
		{"fig5", 1916},
		{"fig6", 61270},
		{"fig7", 142356},
		{"fig8", 212073},
		{"fig9", 29611},
		{"fig10", 104820},
		{"fig11", 51082},
		{"fig12", 437939},
	}
	var events int64
	observeBatch = func(results []*core.Result) {
		for _, r := range results {
			events += r.HostCost.Events
		}
	}
	defer func() { observeBatch = nil }()
	o := Options{Quick: true, Reps: 1, Frames: 8, Seed: 1*0x9E3779B97F4A7C15 + 0xD1AD, Workers: 1}
	var total int64
	for _, w := range want {
		e, err := ByID(w.id)
		if err != nil {
			t.Fatal(err)
		}
		events = 0
		if _, err := e.Run(o); err != nil {
			t.Fatal(err)
		}
		total += events
		if events != w.events {
			t.Errorf("%s: quick sweep fires %d events, pinned at %d", w.id, events, w.events)
		}
	}
	t.Logf("paper-figs iteration: %d events", total)
}
