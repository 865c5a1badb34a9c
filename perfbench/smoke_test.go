package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at minimal size, untraced and traced, and
// checks that each run passes its own checks and prints exactly the
// metrics BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, w := range sp.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": sp.EndToEnd, "1": sp.PerLayer} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				cmd := exec.Command(bin, "--workload", w.Name, "--seed", "7", "--seconds", "1",
					"--trace", trace, "--smoke")
				cmd.Dir = ".."
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}

func TestLeafKind(t *testing.T) {
	for _, tc := range []struct {
		funcs []string
		want  string
	}{
		{[]string{"runtime.chansend", "repro/internal/sim.(*Proc).yield"}, kindSched},
		{[]string{"internal/runtime/atomic.(*Uint32).Load", "runtime.findRunnable", "runtime.schedule"}, kindSched},
		{[]string{"runtime.futex", "runtime.futexsleep"}, kindSched},
		{[]string{"runtime.mallocgc", "runtime.newobject"}, kindGC},
		{[]string{"runtime.scanobject", "runtime.gcDrain"}, kindGC},
		{[]string{"runtime.newproc1", "runtime.newproc"}, kindGC},
		{[]string{"runtime.memmove", "repro/internal/trace.(*Recorder).Emit"}, kindOther},
		{[]string{"repro/internal/sim.(*Engine).Run"}, kindOther},
	} {
		if got := leafKind(tc.funcs); got != tc.want {
			t.Errorf("leafKind(%v) = %s, want %s", tc.funcs, got, tc.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		funcs []string
		want  string
	}{
		{[]string{"runtime.chansend", "repro/internal/sim.(*Proc).yield", "repro/internal/dyad.Consume"}, "sim"},
		{[]string{"runtime.mallocgc", "repro/internal/lustre.(*FS).rpc.func1"}, "lustre"},
		{[]string{"repro/internal/vfs.SizeOnly", "repro/internal/core.(*rig).spawnAll"}, "other_internal"},
		{[]string{"runtime.schedule", "runtime.mcall"}, "unattributed"},
	} {
		if got := layerOf(tc.funcs); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.funcs, got, tc.want)
		}
	}
}

// TestParseProfile decodes a real CPU profile of a busy loop and checks
// that both folds sum to 1.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	probeSink = x
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	f := fold(stacks)
	if f.samples == 0 {
		t.Fatal("no samples")
	}
	for name, shares := range map[string]map[string]float64{"kind": f.kind, "layer": f.layer} {
		if s := sum(shares); s < 1-1e-9 || s > 1+1e-9 {
			t.Errorf("%s fold sums to %v", name, s)
		}
	}
	found := false
	for _, s := range stacks {
		for _, fn := range s.funcs {
			found = found || strings.HasSuffix(fn, ".TestParseProfile")
		}
	}
	if !found {
		t.Error("no sample names the test function")
	}
}
