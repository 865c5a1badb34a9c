package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/models"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// TestMixedRunGolden locks the simulation's observable measurements against
// a committed fixture. The event-kernel and payload-handle internals are
// free to change, but a mixed DYAD/XFS/Lustre batch must keep producing
// byte-identical reports, down to every process's call-path profile:
// virtual time is the product of this repository, and a perf refactor
// that shifts it is a correctness bug, not a speedup.
// Regenerate deliberately with: go test ./internal/core -run MixedRunGolden -update
func TestMixedRunGolden(t *testing.T) {
	jac, err := models.ByName("JAC")
	if err != nil {
		t.Fatal(err)
	}
	stmv, err := models.ByName("STMV")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		{Backend: DYAD, Model: jac, Pairs: 4, Frames: 12, Seed: 11, ComputeJitter: 0.05, KeepProfiles: true},
		{Backend: XFS, Model: jac, Pairs: 2, Frames: 12, Seed: 22, SingleNode: true, ComputeJitter: 0.05, KeepProfiles: true},
		{Backend: Lustre, Model: stmv, Pairs: 4, Frames: 8, Seed: 33, LustreNoise: true, KeepProfiles: true},
		{Backend: DYAD, Model: stmv, Pairs: 2, Frames: 8, Seed: 44, RealFrames: true, KeepProfiles: true},
	}
	results, err := RunMany(cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s\n", r.Cfg.Label())
		fmt.Fprintf(&b, "  makespan=%v\n", r.Makespan)
		fmt.Fprintf(&b, "  producer %v\n", r.Producer)
		fmt.Fprintf(&b, "  consumer %v\n", r.Consumer)
		fmt.Fprintf(&b, "  frames=%d bytes=%d\n", r.FramesRead, r.BytesRead)
		for pair := range r.ProducerProfiles {
			r.ProducerProfiles[pair].Render(&b)
			r.ConsumerProfiles[pair].Render(&b)
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "mixed_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("mixed-run report drifted from golden fixture:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
