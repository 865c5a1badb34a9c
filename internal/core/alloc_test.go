package core

import "testing"

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
		{DYAD, 2775},
		{XFS, 1803},
		{Lustre, 1722},
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
