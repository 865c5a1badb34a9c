package core

import (
	"testing"

	"repro/internal/dyad"
)

// ForceCoarseSync layers the traditional serialized coupling over DYAD
// transport; it must blow up consumer idle to traditional levels while
// leaving DYAD's movement costs unchanged.
func TestForceCoarseSyncIsolatesCoupling(t *testing.T) {
	m := tinyModel()
	base := Config{Backend: DYAD, Model: m, Frames: 16, Pairs: 2, Seed: 3}
	free, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	coarse := base
	coarse.ForceCoarseSync = true
	gated, err := Run(coarse)
	if err != nil {
		t.Fatal(err)
	}
	if gated.Consumer.Idle < free.Consumer.Idle*3 {
		t.Fatalf("coarse-sync idle %v not ≫ pipelined idle %v", gated.Consumer.Idle, free.Consumer.Idle)
	}
	// Transport unchanged: movement within 2x (some queueing shift is fine).
	if gated.Consumer.Movement > free.Consumer.Movement*2 {
		t.Fatalf("coarse-sync changed movement: %v vs %v", gated.Consumer.Movement, free.Consumer.Movement)
	}
	if gated.FramesRead != free.FramesRead {
		t.Fatal("frame conservation broken under coarse sync")
	}
}

// Ablation params must degrade, never improve, DYAD.
func TestDYADOverrideAblations(t *testing.T) {
	m := tinyModel()
	run := func(mut func(*Config)) *Result {
		cfg := Config{Backend: DYAD, Model: m, Frames: 16, Pairs: 2, Seed: 5}
		if mut != nil {
			mut(&cfg)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(nil)

	noBB := run(func(c *Config) {
		p := dyad.DefaultParams()
		p.NoBurstBuffer = true
		c.DYADOverride = &p
	})
	if noBB.Consumer.Movement <= full.Consumer.Movement {
		t.Fatalf("disabling the burst buffer should slow consumer movement: %v vs %v",
			noBB.Consumer.Movement, full.Consumer.Movement)
	}

	noDirect := run(func(c *Config) {
		p := dyad.DefaultParams()
		p.NoDirectTransfer = true
		c.DYADOverride = &p
	})
	if noDirect.Consumer.Movement <= full.Consumer.Movement {
		t.Fatalf("relaying transfers should slow consumer movement: %v vs %v",
			noDirect.Consumer.Movement, full.Consumer.Movement)
	}

	noSync := run(func(c *Config) {
		p := dyad.DefaultParams()
		p.NoAdaptiveSync = true
		c.DYADOverride = &p
	})
	if noSync.Consumer.Idle <= full.Consumer.Idle {
		t.Fatalf("always-watch sync should raise idle: %v vs %v",
			noSync.Consumer.Idle, full.Consumer.Idle)
	}
}
