package core

import (
	"fmt"
	"testing"
)

// Per-run allocation budget of a Fig5-shaped run (JAC, 4 pairs on one node,
// the experiment harness's compute jitter) with every sink off: no spans,
// metrics, critical path, profiles, or trace. Lustre runs the same pairs
// two-node, against its servers, with the background noise on.
// Allocation counts are deterministic, so each backend is pinned to the
// count measured when the budget was set; a regression of one allocation
// per consumed frame (64 here) fails the test.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation budget checked without -race")
	}
	for _, tc := range []struct {
		backend Backend
		budget  float64
	}{
		{DYAD, 540},
		{XFS, 349},
		{Lustre, 524},
	} {
		cfg := Config{Backend: tc.backend, Model: jac(t), Frames: 16, Pairs: 4,
			SingleNode: tc.backend != Lustre, LustreNoise: tc.backend == Lustre,
			Seed: 1, ComputeJitter: 0.004}
		got := testing.AllocsPerRun(3, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.budget {
			t.Errorf("%s: Fig5-shaped run allocates %.0f objects, budget %.0f", tc.backend, got, tc.budget)
		}
	}
}

// pairPath must spell every frame path exactly as the %03d/%05d format it
// replaced, including pairs past 999 and frames past 99999, and allocate
// only the string itself.
func TestPairPathMatchesSprintf(t *testing.T) {
	for _, pair := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 1023, 12345} {
		for _, f := range []int{0, 1, 9, 10, 9999, 10000, 99999, 100000, 1234567} {
			want := fmt.Sprintf("/ensemble/pair%03d/frame%05d.pb", pair, f)
			if got := pairPath(pair, f); got != want {
				t.Errorf("pairPath(%d, %d) = %q, want %q", pair, f, got, want)
			}
		}
	}
	if raceEnabled {
		return
	}
	if got := testing.AllocsPerRun(100, func() { _ = pairPath(1023, 3) }); got != 1 {
		t.Errorf("pairPath allocates %.0f objects, want 1 (the string)", got)
	}
}

// Per-run event and baton-handoff budget of the same Fig5-shaped runs.
// Both counts are deterministic, like allocations, so each is pinned
// exactly: the event count is the simulated timeline's size and must not
// move without a deliberate model change; the handoff count is the number
// of goroutine switches the kernel paid for it and may only go down.
func TestRunHandoffBudget(t *testing.T) {
	for _, tc := range []struct {
		backend          Backend
		events, handoffs int64
	}{
		{DYAD, 1326, 220},
		{XFS, 840, 286},
		{Lustre, 28533, 390},
	} {
		cfg := Config{Backend: tc.backend, Model: jac(t), Frames: 16, Pairs: 4,
			SingleNode: tc.backend != Lustre, LustreNoise: tc.backend == Lustre,
			Seed: 1, ComputeJitter: 0.004}
		pool := &runPool{}
		if _, err := runPooled(cfg, pool); err != nil {
			t.Fatal(err)
		}
		e := pool.eng
		if got := e.Events(); got != tc.events {
			t.Errorf("%s: Fig5-shaped run fires %d events, pinned at %d", tc.backend, got, tc.events)
		}
		if got := e.Handoffs(); got > tc.handoffs {
			t.Errorf("%s: Fig5-shaped run makes %d baton handoffs, budget %d", tc.backend, got, tc.handoffs)
		}
	}
}
