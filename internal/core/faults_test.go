package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

// faultedBatch is a mixed-backend batch under non-empty fault plans: DYAD
// with broker crashes and link faults (plus the Lustre fallback mirror),
// XFS with device stalls, Lustre with server outages. Every run recovers.
func faultedBatch() []Config {
	m := tinyModel()
	return []Config{
		{Backend: DYAD, Model: m, Frames: 8, Pairs: 2, Seed: 101, ComputeJitter: 0.01,
			Faults: &faults.Spec{BrokerCrashes: 1, LinkOutages: 1, LinkDegrades: 1}},
		{Backend: XFS, Model: m, Frames: 8, Pairs: 2, SingleNode: true, Seed: 202, ComputeJitter: 0.01,
			Faults: &faults.Spec{DeviceStalls: 2}},
		{Backend: Lustre, Model: m, Frames: 8, Pairs: 2, Seed: 303, LustreNoise: true,
			Faults: &faults.Spec{OSTOutages: 2, MDSOutages: 1, LinkOutages: 1}},
		{Backend: DYAD, Model: m, Frames: 6, Pairs: 2, Seed: 404, LustreFallback: true,
			Faults: &faults.Spec{BrokerCrashes: 2, DeviceStalls: 1, MeanOutage: 2 * time.Second}},
	}
}

// The PR's determinism contract: fault plans derive from the run seed alone,
// so a faulted batch is byte-identical between -j1 and -j8.
func TestFaultedRunManyParallelMatchesSerial(t *testing.T) {
	cfgs := faultedBatch()
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
		t.Fatalf("faulted workers=1 vs workers=8 differ:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
	// The faults must actually have fired, or this test guards nothing.
	injected := int64(0)
	for _, r := range serial {
		injected += r.Recovery.Injected
	}
	if injected == 0 {
		t.Fatal("faulted batch injected nothing; plans degenerate")
	}
}

// Determinism must hold when a faulted run dies too: the same run fails with
// the same error either way, and survivors are unperturbed.
func TestFaultedBatchWithFatalRunStaysDeterministic(t *testing.T) {
	m := tinyModel()
	kill := faults.Spec{Events: []faults.Event{
		{At: time.Millisecond, Kind: faults.DeviceFail, Target: 0, For: time.Hour},
	}}
	cfgs := []Config{
		{Backend: DYAD, Model: m, Frames: 6, Pairs: 1, SingleNode: true, Seed: 1},
		{Backend: XFS, Model: m, Frames: 6, Pairs: 1, SingleNode: true, Seed: 2, Faults: &kill},
		{Backend: XFS, Model: m, Frames: 6, Pairs: 1, SingleNode: true, Seed: 3},
	}
	serial, serr := RunMany(cfgs, 1)
	parallel, perr := RunMany(cfgs, 8)
	if serr == nil || perr == nil {
		t.Fatal("batch with a device-killed run returned nil error")
	}
	if !errors.Is(serr, faults.ErrDeviceFailed) || !errors.Is(perr, faults.ErrDeviceFailed) {
		t.Fatalf("batch errors missing ErrDeviceFailed: serial=%v parallel=%v", serr, perr)
	}
	if serr.Error() != perr.Error() {
		t.Fatalf("failure text differs between worker counts:\n%v\n%v", serr, perr)
	}
	if serial[1] != nil || parallel[1] != nil {
		t.Fatal("killed run produced a result")
	}
	if canonical(serial) != canonical(parallel) {
		t.Fatal("survivors differ between worker counts")
	}
}

// TestFaultedMixedRunGolden locks the faulted timelines and recovery metrics
// against a committed fixture: recovery behavior (timeout costs, backoff
// schedules, failover points) is part of the simulation's observable output
// and must not drift silently.
// Regenerate deliberately with: go test ./internal/core -run FaultedMixedRunGolden -update
func TestFaultedMixedRunGolden(t *testing.T) {
	results, err := RunMany(faultedBatch(), 4)
	if err != nil {
		t.Fatal(err)
	}
	got := canonical(results)
	golden := filepath.Join("testdata", "faulted_golden.txt")
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
		t.Fatalf("faulted-run report drifted from golden fixture:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// An explicit broker-crash window mid-run: the DYAD workflow must finish
// with every frame accounted and the recovery visible in the Result.
func TestDYADRunSurvivesBrokerCrash(t *testing.T) {
	cfg := Config{
		Backend: DYAD, Model: tinyModel(), Frames: 8, Pairs: 2, Seed: 9,
		Faults: &faults.Spec{Events: []faults.Event{
			{At: 10 * time.Millisecond, Kind: faults.BrokerCrash, Target: 0, For: 400 * time.Millisecond},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesRead != cfg.Pairs*cfg.Frames {
		t.Fatalf("read %d frames, want %d", res.FramesRead, cfg.Pairs*cfg.Frames)
	}
	rec := res.Recovery
	if rec.Injected != 1 || rec.BrokerRestarts != 1 {
		t.Fatalf("recovery %+v: want one injected crash, one restart", rec)
	}
	if rec.Timeouts == 0 || rec.RecoveryTime == 0 {
		t.Fatalf("recovery %+v: crash invisible to consumers", rec)
	}
	// The same config without faults must be strictly faster and clean.
	healthy := cfg
	healthy.Faults = nil
	href, err := Run(healthy)
	if err != nil {
		t.Fatal(err)
	}
	if href.Recovery != (faults.Metrics{}) {
		t.Fatalf("healthy run recorded recovery: %+v", href.Recovery)
	}
	if res.Makespan <= href.Makespan {
		t.Fatalf("faulted makespan %v not above healthy %v", res.Makespan, href.Makespan)
	}
}

// A device failure under XFS is fatal by design: the run returns a wrapped
// sentinel (never hangs, never panics through Run).
func TestXFSRunDeviceFailureIsCleanError(t *testing.T) {
	cfg := Config{
		Backend: XFS, Model: tinyModel(), Frames: 8, Pairs: 2, SingleNode: true, Seed: 5,
		Faults: &faults.Spec{Events: []faults.Event{
			{At: 2 * time.Millisecond, Kind: faults.DeviceFail, Target: 0, For: time.Hour},
		}},
	}
	res, err := Run(cfg)
	if err == nil {
		t.Fatal("run on a dead device succeeded")
	}
	if res != nil {
		t.Fatal("failed run returned a result")
	}
	if !errors.Is(err, faults.ErrDeviceFailed) {
		t.Fatalf("err = %v, want chain wrapping ErrDeviceFailed", err)
	}
}

// Config.MaxEvents arms the engine watchdog even on fault-free runs.
func TestConfigWatchdogAbortsRun(t *testing.T) {
	cfg := Config{
		Backend: XFS, Model: tinyModel(), Frames: 64, Pairs: 2, SingleNode: true, Seed: 5,
		MaxEvents: 500,
	}
	_, err := Run(cfg)
	if !errors.Is(err, sim.ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
	cfg.MaxEvents = 0
	cfg.MaxVirtualTime = 10 * time.Millisecond
	_, err = Run(cfg)
	if !errors.Is(err, sim.ErrWatchdog) {
		t.Fatalf("virtual-time watchdog: err = %v, want ErrWatchdog", err)
	}
}

// A disabled (zero) fault spec must be indistinguishable from a nil one:
// the empty plan costs nothing and perturbs nothing.
func TestDisabledFaultSpecIsByteIdentical(t *testing.T) {
	base := Config{Backend: Lustre, Model: tinyModel(), Frames: 8, Pairs: 2, Seed: 77,
		ComputeJitter: 0.02, LustreNoise: true, KeepProfiles: true}
	withNil, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	spec := base
	spec.Faults = &faults.Spec{}
	withZero, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	a := canonical([]*Result{withNil})
	b := canonical([]*Result{withZero})
	if a != b {
		t.Fatalf("disabled spec perturbed the run:\n--- nil ---\n%s--- zero spec ---\n%s", a, b)
	}
}

// StragglerFactor covers the throttled-device path the straggler experiment
// uses: a degraded node slows its own pairs' consumption.
func TestStragglerFactorSlowsRun(t *testing.T) {
	base := Config{Backend: XFS, Model: tinyModel(), Frames: 6, Pairs: 2, SingleNode: true, Seed: 3}
	healthy, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	throttled := base
	throttled.StragglerFactor = 8
	slow, err := Run(throttled)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Consumer.Movement <= healthy.Consumer.Movement {
		t.Fatalf("8x-throttled device: cons movement %v vs healthy %v", slow.Consumer.Movement, healthy.Consumer.Movement)
	}
	if slow.Makespan <= healthy.Makespan {
		t.Fatalf("throttled makespan %v not above healthy %v", slow.Makespan, healthy.Makespan)
	}
	if slow.Recovery != (faults.Metrics{}) {
		t.Fatalf("straggler study is not fault recovery; got %+v", slow.Recovery)
	}
}

// LustreFallback must deploy the mirror alongside DYAD and reject other
// backends at validation.
func TestLustreFallbackConfig(t *testing.T) {
	m := tinyModel()
	bad := Config{Backend: XFS, Model: m, Frames: 4, Pairs: 1, SingleNode: true}
	bad.LustreFallback = true
	if err := bad.Validate(); err == nil {
		t.Fatal("LustreFallback accepted on XFS")
	}
	good := Config{Backend: DYAD, Model: m, Frames: 4, Pairs: 2, Seed: 8, LustreFallback: true}
	res, err := Run(good)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesRead != good.Pairs*good.Frames {
		t.Fatalf("mirror-enabled run read %d frames", res.FramesRead)
	}
	// The mirror's write cost makes production strictly more expensive.
	plain := good
	plain.LustreFallback = false
	pres, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Producer.Movement <= pres.Producer.Movement {
		t.Fatalf("mirror writes free: %v vs %v", res.Producer.Movement, pres.Producer.Movement)
	}
}
