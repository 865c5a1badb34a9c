package core

import (
	"testing"
	"testing/quick"
)

// Finding 2: moving DYAD from one node to two (direct network
// communication) barely affects consumption.
func TestFinding2TwoNodeDYADCloseToSingleNode(t *testing.T) {
	m := jac(t)
	run := func(single bool) *Result {
		res, err := Run(Config{
			Backend: DYAD, Model: m, Frames: 32, Pairs: 2,
			SingleNode: single, Seed: 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, two := run(true), run(false)
	ratio := two.Consumer.Sum().Seconds() / one.Consumer.Sum().Seconds()
	if ratio > 1.5 {
		t.Fatalf("two-node DYAD consumption %.2fx single-node (want ~1x): %v vs %v",
			ratio, two.Consumer.Sum(), one.Consumer.Sum())
	}
}

// Fig 7's stability claim: production time stays roughly flat as the
// ensemble grows (per-pair mean, producers spread over more nodes).
func TestFinding3ProductionFlatWithEnsembleSize(t *testing.T) {
	m := jac(t)
	prod := func(pairs int) float64 {
		res, err := Run(Config{Backend: DYAD, Model: m, Frames: 16, Pairs: pairs, Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		return res.Producer.Sum().Seconds()
	}
	small, large := prod(8), prod(64)
	if large > small*2 {
		t.Fatalf("DYAD production grew %0.1fx from 8 to 64 pairs (want ~flat)", large/small)
	}
}

// Finding 5 mechanism: traditional consumer idle grows with stride.
func TestFinding5IdleGrowsWithStride(t *testing.T) {
	m := jac(t)
	idle := func(stride int) float64 {
		res, err := Run(Config{Backend: Lustre, Model: m, Frames: 16, Pairs: 2, Stride: stride, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		return res.Consumer.Idle.Seconds()
	}
	if i1, i50 := idle(1), idle(50); i50 < i1*5 {
		t.Fatalf("Lustre idle did not grow with stride: %.4fs (1) vs %.4fs (50)", i1, i50)
	}
}

// Property: for random small configurations, runs complete, conserve
// frames, and are deterministic in their seed.
func TestRandomConfigProperty(t *testing.T) {
	m := tinyModel()
	f := func(seed uint64, pairsRaw, framesRaw, backendRaw uint8) bool {
		pairs := int(pairsRaw)%4 + 1
		frames := int(framesRaw)%6 + 1
		backend := []Backend{DYAD, Lustre}[int(backendRaw)%2]
		cfg := Config{
			Backend: backend, Model: m, Pairs: pairs, Frames: frames,
			Seed: seed, ComputeJitter: 0.01,
		}
		a, err := Run(cfg)
		if err != nil {
			return false
		}
		b, err := Run(cfg)
		if err != nil {
			return false
		}
		return a.FramesRead == pairs*frames &&
			a.Makespan == b.Makespan &&
			a.Consumer == b.Consumer &&
			a.Producer == b.Producer
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
