package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/critpath"
)

func critCfg(b Backend) Config {
	return Config{Backend: b, Model: tinyModel(), Frames: 6, Pairs: 2,
		SingleNode: b != Lustre, Seed: 7, CritPath: true}
}

// Recording is observation-only: every measured number of a recorded run
// must be byte-identical to the same run unrecorded.
func TestCritPathObservationOnly(t *testing.T) {
	for _, b := range []Backend{DYAD, XFS, Lustre} {
		cfg := critCfg(b)
		rec, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		cfg.CritPath = false
		plain, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if rec.Makespan != plain.Makespan || rec.Producer != plain.Producer || rec.Consumer != plain.Consumer {
			t.Errorf("%s: recording changed measurements: %+v vs %+v", b, rec.Makespan, plain.Makespan)
		}
		if rec.Crit == nil || plain.Crit != nil {
			t.Errorf("%s: Crit presence wrong (rec=%v plain=%v)", b, rec.Crit != nil, plain.Crit != nil)
		}
	}
}

// The graph — and everything derived from it — is byte-identical across
// pooled engine reuse: a recording run on a recycled engine matches the
// same run on a fresh one.
func TestCritPathDeterministicAcrossPooledReuse(t *testing.T) {
	for _, b := range []Backend{DYAD, XFS, Lustre} {
		cfg := critCfg(b)
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		pool := &runPool{}
		if _, err := runPooled(cfg, pool); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if pool.eng == nil {
			t.Fatalf("%s: first run retired no engine", b)
		}
		reused, err := runPooled(cfg, pool)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if !reflect.DeepEqual(fresh.Crit.Path, reused.Crit.Path) {
			t.Errorf("%s: critical path differs on a reused engine", b)
		}
		if !reflect.DeepEqual(fresh.Crit.Frames, reused.Crit.Frames) {
			t.Errorf("%s: frame lineages differ on a reused engine", b)
		}
	}
}

// Pooled engine reuse (RunMany recycling) must not leak one run's recorder
// into the next: only the recording repetition carries a summary, and its
// measurements match the rest of the batch.
func TestCritPathPooledReuseInvisible(t *testing.T) {
	cfgs := RepeatConfigs(critCfg(DYAD), 3)
	cfgs[1].CritPath = false
	cfgs[2].CritPath = false
	results, err := RunMany(cfgs, 1) // one worker: reps 2,3 reuse rep 1's engine
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Crit == nil || results[1].Crit != nil || results[2].Crit != nil {
		t.Fatalf("Crit placement wrong: %v %v %v",
			results[0].Crit != nil, results[1].Crit != nil, results[2].Crit != nil)
	}
	if results[0].Makespan != results[1].Makespan {
		// Reps share a seed schedule shifted per rep; compare rep 1's
		// recorded measurements against an unpooled unrecorded run instead.
		cfg := cfgs[0]
		cfg.CritPath = false
		plain, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Makespan != plain.Makespan {
			t.Errorf("recorded pooled rep diverges from plain run: %v vs %v", results[0].Makespan, plain.Makespan)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Size-only sweeps (RealFrames=false, the default) must record full
// provenance without touching payload bytes; RealFrames runs agree on the
// lineage shape.
func TestCritPathSizeOnlyAndRealFramesLineages(t *testing.T) {
	cfg := critCfg(DYAD)
	sizeOnly, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RealFrames = true
	real, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Pairs * cfg.Frames
	if len(sizeOnly.Crit.Frames) != want || len(real.Crit.Frames) != want {
		t.Fatalf("lineages: size-only %d, real %d, want %d",
			len(sizeOnly.Crit.Frames), len(real.Crit.Frames), want)
	}
	for i, fl := range sizeOnly.Crit.Frames {
		if len(fl.Hops) == 0 {
			t.Fatalf("frame %s has no hops", fl.Key)
		}
		if got, want := len(fl.Hops), len(real.Crit.Frames[i].Hops); got != want {
			t.Errorf("frame %s: %d hops size-only vs %d real", fl.Key, got, want)
		}
	}
	// Every frame's critical invariant: the consume hop is last and every
	// hop's interval is well-formed.
	for _, fl := range sizeOnly.Crit.Frames {
		last := fl.Hops[len(fl.Hops)-1]
		if last.Name != "consume" {
			t.Errorf("frame %s: last hop %q, want consume", fl.Key, last.Name)
		}
		for _, h := range fl.Hops {
			if h.End < h.Start {
				t.Errorf("frame %s hop %s: End %v < Start %v", fl.Key, h.Name, h.End, h.Start)
			}
		}
	}
}

// The extracted path must tile the makespan on every backend, healthy or
// degraded: Attributed + Untracked == Makespan is the invariant the diff
// report's attribution guarantee rests on.
func TestCritPathTilesMakespan(t *testing.T) {
	for _, b := range []Backend{DYAD, XFS, Lustre} {
		res, err := Run(critCfg(b))
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		p := res.Crit.Path
		if p.Attributed+p.Untracked != p.Makespan {
			t.Errorf("%s: tiling broken: %v + %v != %v", b, p.Attributed, p.Untracked, p.Makespan)
		}
		if p.Makespan != res.Makespan {
			t.Errorf("%s: path makespan %v != run makespan %v", b, p.Makespan, res.Makespan)
		}
		if res.Crit.Unclosed != 0 {
			t.Errorf("%s: %d processes ended with a critical-path region open", b, res.Crit.Unclosed)
		}
	}
}

// TestNoisyLustreCritPathGolden locks the critical-path artifacts of a
// Fig 6-shaped pair of runs against a committed fixture: a two-node Lustre
// run with background noise and the DYAD run of the same shape, rendered
// as the waterfall CSV, each extracted path, and their differential. The
// noise processes contend with the workflow at the OSTs, so the release
// edges they hand the critical path pin how the kernel attributes wakes
// to background processes — drift the measured numbers alone cannot see.
// Regenerate deliberately with: go test ./internal/core -run NoisyLustreCritPathGolden -update
func TestNoisyLustreCritPathGolden(t *testing.T) {
	base := Config{Model: jac(t), Pairs: 2, Frames: 8, Seed: 5, CritPath: true}
	dy, lu := base, base
	dy.Backend = DYAD
	lu.Backend, lu.LustreNoise = Lustre, true
	results, err := RunMany([]Config{dy, lu}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range results {
		if r.Crit.Unclosed != 0 {
			t.Errorf("%s: %d processes ended with a critical-path region open", r.Cfg.Label(), r.Crit.Unclosed)
		}
		fmt.Fprintf(&b, "== %s\n", r.Cfg.Label())
		if err := critpath.WriteWaterfall(&b, []critpath.LineageSet{{Label: r.Cfg.Label(), Frames: r.Crit.Frames}}); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "path %+v\n", *r.Crit.Path)
	}
	d := critpath.Diff(results[0].Cfg.Label(), results[0].Crit.Path, results[1].Cfg.Label(), results[1].Crit.Path)
	fmt.Fprintf(&b, "diff %+v\n", *d)
	got := b.String()
	if !strings.Contains(got, "background_noise") {
		t.Fatal("noise never reached the critical path; the fixture would not pin its attribution")
	}

	golden := filepath.Join("testdata", "noisy_lustre_critpath_golden.txt")
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
		t.Fatalf("critical-path artifacts drifted from golden fixture:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// A recorded run fails when its critical path does not tile the makespan
// or a process ended inside a region; checkCrit is that check, so a
// forged summary of either kind must fail it and an exact one pass.
func TestCheckCritRejectsNonTilingSummary(t *testing.T) {
	ok := &critpath.Summary{Path: &critpath.CritPath{Makespan: 10, Attributed: 7, Untracked: 3}}
	if err := checkCrit(ok); err != nil {
		t.Fatalf("tiling summary rejected: %v", err)
	}
	for name, s := range map[string]*critpath.Summary{
		"gap":      {Path: &critpath.CritPath{Makespan: 10, Attributed: 7, Untracked: 2}},
		"overlap":  {Path: &critpath.CritPath{Makespan: 10, Attributed: 8, Untracked: 3}},
		"unclosed": {Path: &critpath.CritPath{Makespan: 10, Attributed: 10}, Unclosed: 1},
	} {
		if err := checkCrit(s); err == nil {
			t.Errorf("%s: forged summary %+v accepted", name, s.Path)
		}
	}
	// Every recorded run of each backend passes it.
	for _, b := range []Backend{DYAD, XFS, Lustre} {
		cfg := critCfg(b)
		cfg.LustreNoise = b == Lustre
		if _, err := Run(cfg); err != nil {
			t.Errorf("%s: %v", b, err)
		}
	}
}
