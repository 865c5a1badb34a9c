package core

import (
	"fmt"
	"runtime"
	"testing"
)

// Per-run allocation budget of a Fig5-shaped run (JAC, 4 pairs on one node,
// the experiment harness's compute jitter) with every sink off: no spans,
// metrics, critical path or profiles. Lustre runs the same pairs
// two-node, against its servers, with the background noise on.
// Allocation counts are deterministic, so each backend is pinned to the
// count measured when the budget was set; a regression of one allocation
// per consumed frame (64 here) fails the test. The runs go through one
// run pool, as in a RunMany worker: AllocsPerRun's warm-up call fills it,
// so each measured run reuses the engine and the idle coroutines of its
// processes. The traced DYAD row records spans and the critical path: the
// pool keeps both recorders too, so the run allocates its Result's copy of
// the spans and its critical-path summary, not the recorders' arrays. It
// pins allocated bytes as well as objects, because that reuse saves bytes
// far more than objects. The bytes are the least TotalAlloc delta of three
// more pooled runs: a GC cycle that lands inside a run can add a few
// hundred bytes of the runtime's own.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation budget checked without -race")
	}
	for _, tc := range []struct {
		backend Backend
		traced  bool
		budget  float64
		bytes   uint64 // pinned only for traced runs
	}{
		{DYAD, false, 379, 0},
		{XFS, false, 188, 0},
		{Lustre, false, 300, 0},
		{DYAD, true, 673, 246000},
	} {
		cfg := Config{Backend: tc.backend, Model: jac(t), Frames: 16, Pairs: 4,
			SingleNode: tc.backend != Lustre, LustreNoise: tc.backend == Lustre,
			Seed: 1, ComputeJitter: 0.004, RecordSpans: tc.traced, CritPath: tc.traced}
		name := tc.backend.String()
		if tc.traced {
			name += " traced"
		}
		pool := &runPool{}
		run := func() {
			if _, err := runPooled(cfg, pool); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(3, run)
		if got > tc.budget {
			t.Errorf("%s: Fig5-shaped run allocates %.0f objects, budget %.0f", name, got, tc.budget)
		}
		if tc.traced {
			least := ^uint64(0)
			for i := 0; i < 3; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				run()
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if least > tc.bytes {
				t.Errorf("%s: Fig5-shaped run allocates %d bytes, budget %d", name, least, tc.bytes)
			}
		}
		pool.eng.Close()
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
		{Lustre, 28278, 390},
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
