package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/capacity"
	"repro/internal/dyad"
	"repro/internal/faults"
)

// TestCapacityValidation covers the new Config.Validate rules.
func TestCapacityValidation(t *testing.T) {
	m := tinyModel()
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"lustre with capacity",
			Config{Backend: Lustre, Model: m, Frames: 1, Pairs: 1,
				Capacity: &capacity.Spec{StagingBytes: 1 << 20}}, false},
		{"xfs with cache budget",
			Config{Backend: XFS, Model: m, Frames: 1, Pairs: 1, SingleNode: true,
				Capacity: &capacity.Spec{CacheBytes: 1 << 20}}, false},
		{"negative staging",
			Config{Backend: DYAD, Model: m, Frames: 1, Pairs: 1, SingleNode: true,
				Capacity: &capacity.Spec{StagingBytes: -1}}, false},
		{"unknown policy",
			Config{Backend: DYAD, Model: m, Frames: 1, Pairs: 1, SingleNode: true,
				Capacity: &capacity.Spec{StagingBytes: 1 << 20, Policy: "mru"}}, false},
		{"plan beyond horizon",
			Config{Backend: DYAD, Model: m, Frames: 4, Pairs: 1, SingleNode: true,
				Capacity: &capacity.Spec{Plan: []capacity.Provision{{At: time.Hour}}}}, false},
		{"valid dyad capacity",
			Config{Backend: DYAD, Model: m, Frames: 4, Pairs: 1, SingleNode: true,
				Capacity: &capacity.Spec{StagingBytes: 1 << 20, CacheBytes: 1 << 20,
					Policy: capacity.PolicyConsumedDrop}}, true},
		{"valid xfs capacity",
			Config{Backend: XFS, Model: m, Frames: 4, Pairs: 1, SingleNode: true,
				Capacity: &capacity.Spec{StagingBytes: 1 << 20}}, true},
		{"disabled spec on lustre",
			Config{Backend: Lustre, Model: m, Frames: 1, Pairs: 1,
				Capacity: &capacity.Spec{}}, true},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		}
	}
}

// A disabled or never-pressured capacity spec must be invisible: Reserve
// and MarkConsumed add no virtual time, so the run's measurements are
// byte-identical to a capacity-free run.
func TestUnpressuredCapacityIsByteIdentical(t *testing.T) {
	base := Config{Backend: DYAD, Model: tinyModel(), Frames: 8, Pairs: 2, Seed: 42,
		ComputeJitter: 0.02, KeepProfiles: true}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	disabled := base
	disabled.Capacity = &capacity.Spec{}
	dres, err := Run(disabled)
	if err != nil {
		t.Fatal(err)
	}
	huge := base
	huge.Capacity = &capacity.Spec{StagingBytes: 1 << 40, CacheBytes: 1 << 40}
	hres, err := Run(huge)
	if err != nil {
		t.Fatal(err)
	}
	a := canonical([]*Result{plain})
	if b := canonical([]*Result{dres}); a != b {
		t.Fatalf("disabled spec perturbed the run:\n--- nil ---\n%s--- disabled ---\n%s", a, b)
	}
	if c := canonical([]*Result{hres}); a != c {
		t.Fatalf("unpressured finite spec perturbed the run:\n--- nil ---\n%s--- finite ---\n%s", a, c)
	}
	if !hres.Capacity.Zero() {
		t.Fatalf("unpressured run recorded capacity activity: %v", hres.Capacity)
	}
}

// XFS under consumed-drop with a one-frame budget: the policy never drops
// unread data, so producers feel back-pressure and every frame survives to
// its consumer — the run completes, slower, with stalls on the record.
func TestXFSConsumedDropBackpressure(t *testing.T) {
	m := tinyModel()
	base := Config{Backend: XFS, Model: m, Frames: 8, Pairs: 2, SingleNode: true, Seed: 7}
	healthy, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	tight := base
	tight.Capacity = &capacity.Spec{StagingBytes: m.FrameBytes(), Policy: capacity.PolicyConsumedDrop}
	res, err := Run(tight)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesRead != base.Pairs*base.Frames {
		t.Fatalf("read %d frames, want %d", res.FramesRead, base.Pairs*base.Frames)
	}
	if res.Capacity.Stalls == 0 || res.Capacity.StallNanos == 0 {
		t.Fatalf("one-frame budget produced no back-pressure: %v", res.Capacity)
	}
	if res.Capacity.DroppedFrames != 0 || res.Capacity.SpilledFrames != 0 {
		t.Fatalf("consumed-drop sacrificed unread data: %v", res.Capacity)
	}
	if res.Capacity.Evictions == 0 {
		t.Fatalf("no evictions under a one-frame budget: %v", res.Capacity)
	}
	if res.Makespan <= healthy.Makespan {
		t.Fatalf("back-pressured makespan %v not above unconstrained %v", res.Makespan, healthy.Makespan)
	}
}

// A frame larger than the whole budget must fail fast with a wrapped
// ErrNoSpace — never a hang or a panic through Run.
func TestXFSCapacityNoSpaceIsCleanError(t *testing.T) {
	m := tinyModel()
	cfg := Config{Backend: XFS, Model: m, Frames: 4, Pairs: 1, SingleNode: true, Seed: 3,
		Capacity: &capacity.Spec{StagingBytes: m.FrameBytes() - 1}}
	res, err := Run(cfg)
	if err == nil {
		t.Fatal("over-budget write succeeded")
	}
	if res != nil {
		t.Fatal("failed run returned a result")
	}
	if !errors.Is(err, capacity.ErrNoSpace) {
		t.Fatalf("err = %v, want chain wrapping capacity.ErrNoSpace", err)
	}
}

// DYAD with the Lustre mirror and a slow consumer: the producer's in-flight
// window overflows a tight staging budget, unconsumed frames spill to the
// mirror, and the consumer finishes every frame through degraded reads.
func TestDYADCapacitySpillsToMirror(t *testing.T) {
	m := tinyModel()
	params := dyad.DefaultParams()
	params.ClientOverhead = 25 * time.Millisecond // consumer lags ~5x the frame period
	cfg := Config{Backend: DYAD, Model: m, Frames: 8, Pairs: 1, Seed: 5,
		LustreFallback: true, DYADOverride: &params,
		Capacity: &capacity.Spec{StagingBytes: 2 * m.FrameBytes()}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesRead != cfg.Pairs*cfg.Frames {
		t.Fatalf("read %d frames, want %d", res.FramesRead, cfg.Pairs*cfg.Frames)
	}
	if res.Capacity.SpilledFrames == 0 {
		t.Fatalf("lagging consumer spilled nothing: %v", res.Capacity)
	}
	if res.Capacity.DroppedFrames != 0 {
		t.Fatalf("mirror deployed but frames dropped: %v", res.Capacity)
	}
	if res.Recovery.DegradedReads == 0 {
		t.Fatalf("spilled frames never read degraded: %v", res.Recovery)
	}
}

// The same overflow without a mirror is unrecoverable — but it must die
// with the full errors.Is-able chain (ErrExhausted wrapping ErrEvicted),
// never hang or panic through Run.
func TestDYADCapacityDropIsExhaustedError(t *testing.T) {
	m := tinyModel()
	params := dyad.DefaultParams()
	params.ClientOverhead = 25 * time.Millisecond
	cfg := Config{Backend: DYAD, Model: m, Frames: 8, Pairs: 1, Seed: 5,
		DYADOverride: &params,
		Capacity:     &capacity.Spec{StagingBytes: 2 * m.FrameBytes()}}
	res, err := Run(cfg)
	if err == nil {
		t.Fatal("dropped-frame run succeeded")
	}
	if res != nil {
		t.Fatal("failed run returned a result")
	}
	if !errors.Is(err, capacity.ErrEvicted) {
		t.Fatalf("err = %v, want chain wrapping capacity.ErrEvicted", err)
	}
	if !errors.Is(err, faults.ErrExhausted) {
		t.Fatalf("err = %v, want chain wrapping faults.ErrExhausted", err)
	}
}

// Dynamic provisioning: a scheduled shrink below occupancy forces evictions
// at its virtual time; growing back releases the pressure. The run keeps
// its accounting and completes.
func TestCapacityProvisioningPlan(t *testing.T) {
	m := tinyModel()
	horizon := m.Frequency(m.Stride) * 8
	cfg := Config{Backend: XFS, Model: m, Frames: 8, Pairs: 2, SingleNode: true, Seed: 11,
		Capacity: &capacity.Spec{Plan: []capacity.Provision{
			// Shrink below occupancy but keep one frame per pair, so the
			// forced evictions only take already-consumed frames.
			{At: horizon / 2, StagingBytes: 2 * m.FrameBytes()},
			{At: horizon * 3 / 4, StagingBytes: 0 /* infinite */},
		}}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesRead != cfg.Pairs*cfg.Frames {
		t.Fatalf("read %d frames, want %d", res.FramesRead, cfg.Pairs*cfg.Frames)
	}
	if res.Capacity.ForcedEvictions == 0 {
		t.Fatalf("shrink below occupancy forced nothing: %v", res.Capacity)
	}
}

// pressuredBatch is the capacity determinism workload: back-pressured XFS,
// spilling DYAD, a provisioning plan, and capacity layered over fault
// injection — every run survives.
func pressuredBatch() []Config {
	m := tinyModel()
	slow := dyad.DefaultParams()
	slow.ClientOverhead = 25 * time.Millisecond
	horizon := m.Frequency(m.Stride) * 8
	return []Config{
		{Backend: XFS, Model: m, Frames: 8, Pairs: 2, SingleNode: true, Seed: 7,
			Capacity: &capacity.Spec{StagingBytes: m.FrameBytes(), Policy: capacity.PolicyConsumedDrop}},
		{Backend: DYAD, Model: m, Frames: 8, Pairs: 1, Seed: 5, LustreFallback: true,
			DYADOverride: &slow,
			Capacity:     &capacity.Spec{StagingBytes: 2 * m.FrameBytes()}},
		{Backend: XFS, Model: m, Frames: 8, Pairs: 2, SingleNode: true, Seed: 11,
			Capacity: &capacity.Spec{Plan: []capacity.Provision{
				{At: horizon / 2, StagingBytes: 2 * m.FrameBytes()},
				{At: horizon * 3 / 4},
			}}},
		{Backend: DYAD, Model: m, Frames: 8, Pairs: 2, Seed: 101, ComputeJitter: 0.01,
			LustreFallback: true,
			Faults:         &faults.Spec{BrokerCrashes: 1, LinkDegrades: 1},
			Capacity:       &capacity.Spec{StagingBytes: 4 * m.FrameBytes(), CacheBytes: 2 * m.FrameBytes()}},
	}
}

// Determinism under pressure: evict/spill ordering, stall accounting, and
// provisioning are all event-serialized state, so a pressured batch is
// byte-identical between -j1 and -j8.
func TestCapacityPressureDeterminism(t *testing.T) {
	cfgs := pressuredBatch()
	serial, err := RunMany(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunMany(cfgs, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, b := canonical(serial), canonical(parallel)
	if a != b {
		t.Fatalf("pressured workers=1 vs workers=8 differ:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
	// The pressure must actually exist, or this test guards nothing.
	var stalls, spills int64
	for _, r := range serial {
		stalls += r.Capacity.Stalls
		spills += r.Capacity.SpilledFrames
	}
	if stalls == 0 || spills == 0 {
		t.Fatalf("pressured batch degenerate: stalls=%d spills=%d", stalls, spills)
	}
}

// TestCapacityStarvedGolden locks a capacity-starved (and partly faulted)
// batch's timelines, capacity records, and recovery metrics against a
// committed fixture, pinning evict/spill/stall behavior byte-for-byte.
// Regenerate deliberately with:
// go test ./internal/core -run CapacityStarvedGolden -update
func TestCapacityStarvedGolden(t *testing.T) {
	results, err := RunMany(pressuredBatch(), 4)
	if err != nil {
		t.Fatal(err)
	}
	got := canonical(results)
	golden := filepath.Join("testdata", "capacity_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden fixture (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("capacity-starved report drifted from golden fixture:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
