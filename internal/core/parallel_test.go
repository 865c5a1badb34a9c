package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/capacity"
)

// mixedBatch is a heterogeneous DYAD/XFS/Lustre config batch exercising
// every backend, both placements, jitter, and Lustre noise.
func mixedBatch() []Config {
	m := tinyModel()
	return []Config{
		{Backend: DYAD, Model: m, Frames: 8, Pairs: 2, SingleNode: true, Seed: 1, ComputeJitter: 0.01},
		{Backend: XFS, Model: m, Frames: 8, Pairs: 2, SingleNode: true, Seed: 2, ComputeJitter: 0.01},
		{Backend: Lustre, Model: m, Frames: 8, Pairs: 4, Seed: 3, ComputeJitter: 0.01, LustreNoise: true},
		{Backend: DYAD, Model: m, Frames: 8, Pairs: 4, Seed: 4, ComputeJitter: 0.02},
		{Backend: Lustre, Model: m, Frames: 6, Pairs: 2, Seed: 5},
		{Backend: DYAD, Model: m, Frames: 6, Pairs: 1, SingleNode: true, Seed: 6, KeepProfiles: true},
	}
}

// canonical renders every measurement a Result carries (including profile
// trees when kept) so byte-equality of the strings is byte-equality of the
// results.
func canonical(results []*Result) string {
	var sb strings.Builder
	for i, r := range results {
		if r == nil {
			fmt.Fprintf(&sb, "[%d] <nil>\n", i)
			continue
		}
		fmt.Fprintf(&sb, "[%d] %s prod=%v cons=%v makespan=%v frames=%d bytes=%d recovery=%v\n",
			i, r.Cfg.Label(), r.Producer, r.Consumer, r.Makespan, r.FramesRead, r.BytesRead, r.Recovery)
		if r.Capacity != (capacity.Metrics{}) {
			// Only pressured runs print the capacity record, so pre-capacity
			// golden fixtures stay byte-identical.
			fmt.Fprintf(&sb, "    capacity=%v\n", r.Capacity)
		}
		for _, p := range r.ProducerProfiles {
			p.Render(&sb)
		}
		for _, p := range r.ConsumerProfiles {
			p.Render(&sb)
		}
	}
	return sb.String()
}

func TestRunManyPreservesOrder(t *testing.T) {
	cfgs := mixedBatch()
	results, err := RunMany(cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cfgs) {
		t.Fatalf("got %d results, want %d", len(results), len(cfgs))
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("result %d is nil", i)
		}
		if r.Cfg.Label() != cfgs[i].Label() {
			t.Errorf("result %d is %s, want %s (order not preserved)", i, r.Cfg.Label(), cfgs[i].Label())
		}
	}
}

// The tentpole guarantee: the worker count affects only wall-clock time,
// never measurements. A parallel batch must be byte-identical to a serial
// one for a mixed DYAD/XFS/Lustre batch.
func TestRunManyParallelMatchesSerial(t *testing.T) {
	cfgs := mixedBatch()
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
		t.Fatalf("workers=1 vs workers=8 differ:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
}

// Same Config + seed run twice yields identical measurements.
func TestRunManyDeterministicAcrossInvocations(t *testing.T) {
	cfgs := mixedBatch()
	first, err := RunMany(cfgs, 8)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunMany(cfgs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(first) != canonical(second) {
		t.Fatal("two RunMany invocations of the same batch differ")
	}
}

func TestRunManyCollectsAllErrors(t *testing.T) {
	m := tinyModel()
	good := Config{Backend: DYAD, Model: m, Frames: 4, Pairs: 1, SingleNode: true, Seed: 1}
	badPairs := good
	badPairs.Pairs = 0
	badFrames := good
	badFrames.Frames = 0
	cfgs := []Config{good, badPairs, good, badFrames, good}
	results, err := RunMany(cfgs, 4)
	if err == nil {
		t.Fatal("batch with invalid configs returned nil error")
	}
	for _, want := range []string{"run 1", "run 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q (errors not collected)", err, want)
		}
	}
	for _, i := range []int{0, 2, 4} {
		if results[i] == nil {
			t.Errorf("valid run %d aborted by sibling failure", i)
		}
	}
	for _, i := range []int{1, 3} {
		if results[i] != nil {
			t.Errorf("failed run %d has a result", i)
		}
	}
}

func TestRunManyEmptyBatch(t *testing.T) {
	results, err := RunMany(nil, 8)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: results=%v err=%v", results, err)
	}
}

// RepeatWorkers with workers=1 and workers=8 must aggregate identically:
// the seed schedule is fixed per repetition index, not per worker.
func TestRepeatWorkersDeterministicAggregates(t *testing.T) {
	m := tinyModel()
	cfg := Config{Backend: Lustre, Model: m, Frames: 8, Pairs: 2, Seed: 77, ComputeJitter: 0.02, LustreNoise: true}
	serial, err := RepeatWorkers(cfg, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RepeatWorkers(cfg, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(serial) != canonical(parallel) {
		t.Fatal("RepeatWorkers results differ between workers=1 and workers=8")
	}
	sa, pa := Aggregated(serial), Aggregated(parallel)
	if sa != pa {
		t.Fatalf("aggregates differ:\n%+v\n%+v", sa, pa)
	}
	if sa.Makespan.Std == 0 {
		t.Error("jittered reps should vary across seeds")
	}
}

func TestRepeatWorkersRejectsZeroReps(t *testing.T) {
	if _, err := RepeatWorkers(Config{}, 0, 2); err == nil {
		t.Fatal("reps=0 accepted")
	}
}
