package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Per-run allocation budget of a Fig5-shaped run (JAC, 4 pairs on one node,
// the experiment harness's compute jitter) with every sink off: no spans,
// metrics, critical path or profiles. Lustre runs the same pairs
// two-node, against its servers, with the background noise on.
// Allocation counts are deterministic, so each backend is pinned to the
// objects and bytes measured when the budget was set; a regression of one
// allocation per consumed frame (64 here) fails the test, and so does a
// lent table (sim.LendMap) that grows again. The runs go through one run
// pool, as in a RunMany worker: a warm-up run fills it, so each measured
// run reuses the engine, the idle coroutines of its processes, the
// processes, pair table, clients and servers the engine lends, and the
// tables the last run grew. The traced DYAD row records spans and the
// critical path: the pool keeps both recorders too, so the run allocates
// its Result's copy of the spans and its critical-path summary, not the
// recorders' arrays. The metered DYAD row runs 32 frames with spans,
// metrics (at the experiments' 250 ms interval) and the critical path on:
// its engine lends it the block it samples into and the pool keeps the
// recorder its lineage hops go to, so it allocates its Result's exact
// copies, and one allocation more per sample boundary or per hop fails it
// (it logs both counts). The many-pair row is a DYAD ensemble of 256 pairs of
// 2 frames across 64 nodes: what a warm run allocates there is its Result
// and its per-frame data, so one allocation more per pair (256) fails it,
// which the 4-pair rows cannot see. Each pin is the least delta of five
// pooled runs: a GC cycle that lands inside a run can add a few objects
// and a few hundred bytes of the runtime's own (a sync.Pool refilled, as
// fmt's), and the metered row allocates enough for one to land in three
// runs in a row. Each row logs what it measured (go test -v).
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation budget checked without -race")
	}
	for _, tc := range []struct {
		backend Backend
		traced  bool
		metered bool
		pairs   int
		objects uint64
		bytes   uint64
	}{
		{DYAD, false, false, 4, 107, 3120},
		{XFS, false, false, 4, 3, 1296},
		{Lustre, false, false, 4, 15, 1544},
		{DYAD, true, false, 4, 140, 168184},
		{DYAD, true, true, 4, 372, 369096},
		{DYAD, false, false, 256, 1085, 20888},
	} {
		cfg := Config{Backend: tc.backend, Model: jac(t), Frames: 16, Pairs: tc.pairs,
			SingleNode: tc.backend != Lustre, LustreNoise: tc.backend == Lustre,
			Seed: 1, ComputeJitter: 0.004, RecordSpans: tc.traced, CritPath: tc.traced}
		name := tc.backend.String()
		switch {
		case tc.metered:
			cfg.Frames, cfg.MetricsInterval = 32, 250*time.Millisecond
			name += " metered"
		case tc.traced:
			name += " traced"
		}
		if tc.pairs > 4 {
			cfg.Frames, cfg.SingleNode = 2, false
			name = fmt.Sprintf("%s %d pairs", name, tc.pairs)
		}
		pool := &runPool{}
		var res *Result
		run := func() {
			var err error
			if res, err = runPooled(cfg, pool); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if tc.metered {
			hops := 0
			for _, fl := range res.Crit.Frames {
				hops += len(fl.Hops)
			}
			t.Logf("%s: %d sample boundaries, %d lineage hops", name, res.Metrics.Len(), hops)
		}
		objects, bytes := ^uint64(0), ^uint64(0)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			objects = min(objects, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("alloc row %s: %d objects, %d bytes", name, objects, bytes)
		if objects > tc.objects || bytes > tc.bytes {
			t.Errorf("%s: run allocates %d objects and %d bytes, budget %d and %d",
				name, objects, bytes, tc.objects, tc.bytes)
		}
		pool.eng.Close()
	}
}

// Frame paths must be spelt exactly as the %03d/%05d format they
// replaced, including pairs past 999 and frames past 99999. A pair's
// paths are one string, one allocation, and framePath cuts each frame's
// path out of it, across the frame that widens the paths by a digit.
func TestPairPathMatchesSprintf(t *testing.T) {
	var buf [64]byte
	for _, pair := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 1023, 12345} {
		for _, f := range []int{0, 1, 9, 10, 9999, 10000, 99999, 100000, 1234567} {
			want := fmt.Sprintf("/ensemble/pair%03d/frame%05d.pb", pair, f)
			if got := string(appendFramePath(buf[:0], pair, f)); got != want {
				t.Errorf("appendFramePath(%d, %d) = %q, want %q", pair, f, got, want)
			}
		}
	}
	const frames = 100002
	r := &rig{pairs: pairTable{{paths: pairPaths(7, 3)}, {paths: pairPaths(1023, frames)}}}
	for pair, n := range []int{3, frames} {
		for f := 0; f < n; f++ {
			want := fmt.Sprintf("/ensemble/pair%03d/frame%05d.pb", []int{7, 1023}[pair], f)
			if got := r.framePath(pair, f); got != want {
				t.Fatalf("framePath(%d, %d) = %q, want %q", pair, f, got, want)
			}
		}
	}
	if raceEnabled {
		return
	}
	if got := testing.AllocsPerRun(100, func() { _ = pairPaths(1023, 16) }); got != 1 {
		t.Errorf("pairPaths allocates %.0f objects, want 1 (the string)", got)
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
		{Lustre, 3621, 390},
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
