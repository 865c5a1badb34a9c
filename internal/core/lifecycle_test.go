package core

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

// settledGoroutines returns the goroutine count once it stops falling, so
// RunMany workers that are still exiting are not counted.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 40; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// RunMany draws its pools from the process-wide free list, and a pooled
// engine keeps its idle coroutines between calls, a killed run's too:
// batch after batch of fault-killed, watchdog-aborted and stranded runs
// mixed with healthy ones must leave the goroutine count where the first
// batch left it, give or take the coroutines one more healthy run per
// pool could keep. ReleasePools then frees what the pools kept.
func TestRunPoolLifecycle(t *testing.T) {
	m := tinyModel()
	ok := Config{Backend: DYAD, Model: m, Frames: 4, Pairs: 2, SingleNode: true, Seed: 1}
	killed := Config{Backend: XFS, Model: m, Frames: 4, Pairs: 2, SingleNode: true, Seed: 2,
		Faults: &faults.Spec{Events: []faults.Event{{At: time.Millisecond, Kind: faults.DeviceFail, Target: 0, For: time.Hour}}}}
	watchdog := ok
	watchdog.Seed, watchdog.MaxEvents = 3, 50

	batch := func() {
		t.Helper()
		res, err := RunMany([]Config{ok, killed, watchdog, ok, killed}, 2)
		if !errors.Is(err, faults.ErrDeviceFailed) || !errors.Is(err, sim.ErrWatchdog) {
			t.Fatalf("batch error %v, want a device failure and a watchdog abort", err)
		}
		if res[0] == nil || res[3] == nil {
			t.Fatal("healthy runs of the batch failed")
		}
		if _, err := RunMany([]Config{killed}, 1); !errors.Is(err, faults.ErrDeviceFailed) {
			t.Fatalf("killed run: %v", err)
		}
		if _, err := RunMany([]Config{watchdog}, 1); !errors.Is(err, sim.ErrWatchdog) {
			t.Fatalf("watchdog run: %v", err)
		}
		// No config strands a run: spawn a process that blocks forever
		// beside the workflow of a pooled rig.
		pool := getRunPool()
		r := newRig(ok, pool)
		r.eng.Spawn("stranded", func(p *sim.Proc) { p.Block() })
		_, err = r.run(pool)
		putRunPool(pool)
		if !errors.Is(err, sim.ErrStranded) {
			t.Fatalf("stranded run: %v", err)
		}
		if _, err := RunMany([]Config{ok}, 1); err != nil {
			t.Fatal(err)
		}
	}

	ReleasePools()
	before := settledGoroutines()
	batch()
	base := settledGoroutines()
	for i := 0; i < 6; i++ {
		batch()
	}
	// Every pool on the free list may end a batch holding one healthy
	// run's coroutines more than it did after the first.
	runPools.Lock()
	slack := len(runPools.free) * 2 * ok.Pairs
	runPools.Unlock()
	if got := settledGoroutines(); got > base+slack {
		t.Fatalf("goroutines grew from %d to %d over 6 batches (slack %d): failed runs leak their coroutines", base, got, slack)
	}
	ReleasePools()
	if got := settledGoroutines(); got > before {
		t.Fatalf("%d goroutines after ReleasePools, %d before the first batch", got, before)
	}
}

// A coroutine must be resumed in the OS-thread locking state it was
// created in, or the runtime aborts the process. A caller locked to its
// thread must still be able to run: Run builds a fresh engine on the
// caller's goroutine, and RunMany reuses pools warmed by other goroutines
// on goroutines of its own.
func TestRunFromLockedThread(t *testing.T) {
	cfg := Config{Backend: DYAD, Model: tinyModel(), Frames: 4, Pairs: 2, Seed: 1}
	if _, err := RunMany([]Config{cfg, cfg}, 2); err != nil {
		t.Fatal(err)
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < 2; i++ {
		if _, err := RunMany([]Config{cfg}, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
}

// A run on an engine whose coroutines were recycled from a larger run of
// another backend and shape must equal the same run on a fresh engine:
// the same result, events, handoffs, spans and critical path.
func TestRecycledCoroutinesMatchFresh(t *testing.T) {
	m := tinyModel()
	big := Config{Backend: Lustre, Model: m, Frames: 6, Pairs: 8, LustreNoise: true, Seed: 17}
	cfg := Config{Backend: DYAD, Model: m, Frames: 6, Pairs: 3, Seed: 5, ComputeJitter: 0.01,
		KeepProfiles: true, RecordSpans: true, CritPath: true}

	type run struct {
		res              *Result
		events, handoffs int64
	}
	runOn := func(pool *runPool) run {
		t.Helper()
		res, err := runPooled(cfg, pool)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pool.eng.Close)
		return run{res, pool.eng.Events(), pool.eng.Handoffs()}
	}

	recycledPool := &runPool{}
	if _, err := runPooled(big, recycledPool); err != nil {
		t.Fatal(err)
	}
	warmed := recycledPool.eng
	recycled := runOn(recycledPool)
	if recycledPool.eng != warmed {
		t.Fatal("the second run did not reuse the first run's engine")
	}
	fresh := runOn(&runPool{})

	if a, b := canonical([]*Result{recycled.res}), canonical([]*Result{fresh.res}); a != b {
		t.Errorf("recycled result diverged from fresh:\n%s\nwant\n%s", a, b)
	}
	if recycled.events != fresh.events || recycled.handoffs != fresh.handoffs {
		t.Errorf("recycled run fired %d events in %d handoffs, fresh %d in %d",
			recycled.events, recycled.handoffs, fresh.events, fresh.handoffs)
	}
	if !reflect.DeepEqual(recycled.res.Spans, fresh.res.Spans) {
		t.Error("recycled run's spans diverged from fresh")
	}
	if recycled.res.Crit == nil || !reflect.DeepEqual(recycled.res.Crit, fresh.res.Crit) {
		t.Error("recycled run's critical path and frame lineages diverged from fresh")
	}
}
