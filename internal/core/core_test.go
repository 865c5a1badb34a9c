package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/models"
)

// tinyModel is a fast synthetic model for correctness tests: small frames,
// quick steps.
func tinyModel() models.Model {
	return models.Model{Name: "TINY", Atoms: 2_000, StepsPerSecond: 10_000, Stride: 50}
}

func jac(t *testing.T) models.Model {
	t.Helper()
	m, err := models.ByName("JAC")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	m := tinyModel()
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid dyad single", Config{Backend: DYAD, Model: m, Frames: 1, Pairs: 1, SingleNode: true}, true},
		{"valid lustre multi", Config{Backend: Lustre, Model: m, Frames: 1, Pairs: 1}, true},
		{"zero pairs", Config{Backend: DYAD, Model: m, Frames: 1, Pairs: 0, SingleNode: true}, false},
		{"zero frames", Config{Backend: DYAD, Model: m, Frames: 0, Pairs: 1, SingleNode: true}, false},
		{"lustre single-node", Config{Backend: Lustre, Model: m, Frames: 1, Pairs: 1, SingleNode: true}, false},
		{"xfs multi-node", Config{Backend: XFS, Model: m, Frames: 1, Pairs: 1}, false},
		{"too many pairs on one node", Config{Backend: XFS, Model: m, Frames: 1, Pairs: 5, SingleNode: true}, false},
		{"empty model", Config{Backend: DYAD, Frames: 1, Pairs: 1, SingleNode: true}, false},
		{"negative stride", Config{Backend: DYAD, Model: m, Frames: 1, Pairs: 1, SingleNode: true, Stride: -1}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

// Jitter and straggler inputs that the run would silently misread are
// refused: a NaN jitter collapses every compute phase, a negative one
// reads as zero, an infinite straggler factor sleeps a negative duration,
// and one below 1 or NaN is ignored.
func TestValidateRejectsBadJitterAndStraggler(t *testing.T) {
	base := Config{Backend: DYAD, Model: tinyModel(), Frames: 1, Pairs: 1, SingleNode: true}
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		jitter, straggler float64
		ok                bool
	}{
		{0, 0, true}, {0.004, 0, true}, {0, 1, true}, {0, 8, true},
		{nan, 0, false}, {-1, 0, false}, {inf, 0, false}, {math.Inf(-1), 0, false},
		{0, 0.5, false}, {0, nan, false}, {0, inf, false}, {0, -2, false},
	} {
		cfg := base
		cfg.ComputeJitter, cfg.StragglerFactor = c.jitter, c.straggler
		if err := cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("jitter %v, straggler %v: Validate = %v, want ok %v", c.jitter, c.straggler, err, c.ok)
		}
	}
}

func TestComputeNodesPlacement(t *testing.T) {
	m := tinyModel()
	cases := []struct {
		pairs int
		want  int
	}{
		{1, 2}, {8, 2}, {9, 4}, {16, 4}, {64, 16}, {256, 64},
	}
	for _, c := range cases {
		cfg := Config{Backend: Lustre, Model: m, Frames: 1, Pairs: c.pairs}
		if got := cfg.ComputeNodes(); got != c.want {
			t.Errorf("pairs=%d: nodes=%d, want %d", c.pairs, got, c.want)
		}
	}
	single := Config{Backend: DYAD, Model: m, Frames: 1, Pairs: 4, SingleNode: true}
	if single.ComputeNodes() != 1 {
		t.Error("single-node config must use 1 node")
	}
}

func TestRunAllBackendsConserveFrames(t *testing.T) {
	m := tinyModel()
	for _, cfg := range []Config{
		{Backend: DYAD, Model: m, Frames: 12, Pairs: 2, SingleNode: true, Seed: 1},
		{Backend: XFS, Model: m, Frames: 12, Pairs: 2, SingleNode: true, Seed: 1},
		{Backend: DYAD, Model: m, Frames: 12, Pairs: 4, Seed: 1},
		{Backend: Lustre, Model: m, Frames: 12, Pairs: 4, Seed: 1},
	} {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label(), err)
		}
		if res.FramesRead != cfg.Frames*cfg.Pairs {
			t.Errorf("%s: frames %d, want %d", cfg.Label(), res.FramesRead, cfg.Frames*cfg.Pairs)
		}
		if res.BytesRead != int64(cfg.Frames*cfg.Pairs)*m.FrameBytes() {
			t.Errorf("%s: bytes %d", cfg.Label(), res.BytesRead)
		}
		if res.Makespan <= 0 {
			t.Errorf("%s: makespan %v", cfg.Label(), res.Makespan)
		}
	}
}

func TestRealFramesVerified(t *testing.T) {
	m := tinyModel()
	cfg := Config{Backend: DYAD, Model: m, Frames: 5, Pairs: 2, Seed: 3, RealFrames: true}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("real-frame run failed verification: %v", err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	m := tinyModel()
	cfg := Config{Backend: DYAD, Model: m, Frames: 10, Pairs: 3, Seed: 42, ComputeJitter: 0.01}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Producer != b.Producer || a.Consumer != b.Consumer || a.Makespan != b.Makespan {
		t.Fatalf("same seed differs:\n%+v\n%+v", a, b)
	}
}

func TestJitterVariesAcrossSeeds(t *testing.T) {
	m := tinyModel()
	base := Config{Backend: DYAD, Model: m, Frames: 10, Pairs: 1, SingleNode: true, ComputeJitter: 0.05}
	base.Seed = 1
	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Seed = 2
	b, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan == b.Makespan {
		t.Fatal("jittered runs with different seeds are identical")
	}
}

// The paper's Finding 1 mechanism: DYAD production costs more than XFS
// (metadata), but overall consumption is orders of magnitude cheaper
// (adaptive vs coarse-grained synchronization).
func TestSingleNodeDYADvsXFSShape(t *testing.T) {
	m := jac(t)
	run := func(b Backend) *Result {
		res, err := Run(Config{Backend: b, Model: m, Frames: 32, Pairs: 2, SingleNode: true, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dy, xf := run(DYAD), run(XFS)

	prodRatio := dy.Producer.Sum().Seconds() / xf.Producer.Sum().Seconds()
	if prodRatio <= 1.0 || prodRatio > 2.5 {
		t.Errorf("DYAD/XFS production ratio %.2f, want in (1.0, 2.5] (paper: 1.4)", prodRatio)
	}
	consRatio := xf.Consumer.Sum().Seconds() / dy.Consumer.Sum().Seconds()
	if consRatio < 10 {
		t.Errorf("XFS/DYAD consumption ratio %.1f, want >> 10 (paper: 192.9)", consRatio)
	}
	if xf.Consumer.Idle < xf.Consumer.Movement*10 {
		t.Errorf("XFS consumption should be idle-dominated: %v", xf.Consumer)
	}
	if dy.Producer.Idle != 0 {
		t.Errorf("DYAD producer idle %v, want 0 (never blocks)", dy.Producer.Idle)
	}
}

// The paper's Findings 2/3 mechanism: cross-node DYAD beats Lustre in both
// movement and idle.
func TestTwoNodeDYADvsLustreShape(t *testing.T) {
	m := jac(t)
	run := func(b Backend) *Result {
		res, err := Run(Config{Backend: b, Model: m, Frames: 32, Pairs: 4, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dy, lu := run(DYAD), run(Lustre)

	prodMv := lu.Producer.Movement.Seconds() / dy.Producer.Movement.Seconds()
	if prodMv < 3 || prodMv > 15 {
		t.Errorf("Lustre/DYAD producer movement %.1f, want ~7.5 (3..15)", prodMv)
	}
	consMv := lu.Consumer.Movement.Seconds() / dy.Consumer.Movement.Seconds()
	if consMv < 3 || consMv > 15 {
		t.Errorf("Lustre/DYAD consumer movement %.1f, want ~6.9 (3..15)", consMv)
	}
	overall := lu.Consumer.Sum().Seconds() / dy.Consumer.Sum().Seconds()
	if overall < 10 {
		t.Errorf("Lustre/DYAD overall consumption %.1f, want >> 10 (paper: 197.4)", overall)
	}
}

// Consumption can never finish before production starts: the consumer idle
// plus movement must place total consumer activity within the makespan.
func TestTimesWithinMakespan(t *testing.T) {
	m := tinyModel()
	for _, b := range []Backend{DYAD, Lustre} {
		res, err := Run(Config{Backend: b, Model: m, Frames: 16, Pairs: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if res.Consumer.Sum() > res.Makespan || res.Producer.Sum() > res.Makespan {
			t.Errorf("%s: component times exceed makespan %v: prod=%v cons=%v",
				b, res.Makespan, res.Producer.Sum(), res.Consumer.Sum())
		}
	}
}

// Traditional backends serialize producer and consumer: consumer idle per
// frame is about one full production period.
func TestTraditionalIdleTracksFrequency(t *testing.T) {
	m := tinyModel()
	res, err := Run(Config{Backend: Lustre, Model: m, Frames: 20, Pairs: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Backend: Lustre, Model: m, Frames: 20, Pairs: 1}
	perFrameIdle := res.Consumer.Idle / time.Duration(20)
	freq := cfg.Frequency()
	if perFrameIdle < freq || perFrameIdle > freq*3 {
		t.Errorf("consumer idle/frame %v, want ~frequency %v", perFrameIdle, freq)
	}
}

// DYAD's adaptive sync: consumer idle is dominated by the first frame;
// doubling the frame count must not double the idle.
func TestDYADIdleFirstTouchOnly(t *testing.T) {
	m := tinyModel()
	run := func(frames int) time.Duration {
		res, err := Run(Config{Backend: DYAD, Model: m, Frames: frames, Pairs: 1, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		return res.Consumer.Idle
	}
	i20, i40 := run(20), run(40)
	if i40 > i20*3/2 {
		t.Errorf("DYAD idle grows with frames: %v (20f) -> %v (40f)", i20, i40)
	}
}

func TestKeepProfiles(t *testing.T) {
	m := tinyModel()
	res, err := Run(Config{Backend: DYAD, Model: m, Frames: 4, Pairs: 2, Seed: 1, KeepProfiles: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ProducerProfiles) != 2 || len(res.ConsumerProfiles) != 2 {
		t.Fatalf("profiles %d/%d, want 2/2", len(res.ProducerProfiles), len(res.ConsumerProfiles))
	}
	if res.ConsumerProfiles[0].Root.Find("dyad_consume") == nil {
		t.Fatal("consumer profile missing dyad_consume")
	}
	// Each pair's consumer totals come with the profiles; their mean is
	// the consumer column.
	if len(res.ConsumerTotals) != 2 {
		t.Fatalf("%d consumer totals, want 2", len(res.ConsumerTotals))
	}
	a, b := res.ConsumerTotals[0], res.ConsumerTotals[1]
	if mean := (Totals{Movement: (a.Movement + b.Movement) / 2, Idle: (a.Idle + b.Idle) / 2}); mean != res.Consumer {
		t.Fatalf("per-pair consumer totals %v average %v, want %v", res.ConsumerTotals, mean, res.Consumer)
	}
	// Without the flag, profiles are dropped, and nothing else moves.
	res2, err := Run(Config{Backend: DYAD, Model: m, Frames: 4, Pairs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ProducerProfiles != nil || res2.ConsumerTotals != nil {
		t.Fatal("profiles kept without KeepProfiles")
	}
	stripped := *res
	stripped.Cfg.KeepProfiles = false
	stripped.ProducerProfiles, stripped.ConsumerProfiles, stripped.ConsumerTotals = nil, nil, nil
	if with, without := canonical([]*Result{&stripped}), canonical([]*Result{res2}); with != without {
		t.Fatalf("keeping profiles moved the results:\n%s\nwithout:\n%s", with, without)
	}
}

func TestRepeatAndAggregate(t *testing.T) {
	m := tinyModel()
	cfg := Config{Backend: DYAD, Model: m, Frames: 8, Pairs: 2, Seed: 100, ComputeJitter: 0.02}
	results, err := Repeat(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	agg := Aggregated(results)
	if agg.ProdMovement.Mean <= 0 || agg.Makespan.Mean <= 0 {
		t.Fatalf("aggregate means not positive: %+v", agg)
	}
	if agg.Makespan.Std == 0 {
		t.Error("jittered reps should show variance in makespan")
	}
	if agg.ConsTotalMean() != agg.ConsMovement.Mean+agg.ConsIdle.Mean {
		t.Error("ConsTotalMean mismatch")
	}
}

func TestBackendParsing(t *testing.T) {
	for _, s := range []string{"DYAD", "XFS", "Lustre", "dyad", "xfs", "lustre"} {
		if _, err := ParseBackend(s); err != nil {
			t.Errorf("ParseBackend(%q): %v", s, err)
		}
	}
	if _, err := ParseBackend("gpfs"); err == nil {
		t.Error("unknown backend accepted")
	}
	if DYAD.String() != "DYAD" || XFS.String() != "XFS" || Lustre.String() != "Lustre" {
		t.Error("backend names wrong")
	}
}

func TestLustreNoiseAddsVariability(t *testing.T) {
	m := tinyModel()
	cfg := Config{Backend: Lustre, Model: m, Frames: 16, Pairs: 2, LustreNoise: true, ComputeJitter: 0.01}
	cfg.Seed = 21
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 22
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Producer.Movement == b.Producer.Movement {
		t.Error("noisy runs identical across seeds")
	}
}
