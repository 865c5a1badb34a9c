package calib

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
)

func TestDefaultSpaceValid(t *testing.T) {
	if err := DefaultSpace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceValidationRejects(t *testing.T) {
	cases := []struct {
		name  string
		space Space
		want  string
	}{
		{"empty", Space{}, "empty"},
		{"unknown name", Space{Params: []Param{{Name: "ssd.rpm", Lo: 0, Hi: 1}}}, "unknown"},
		{"duplicate", Space{Params: []Param{
			{Name: ParamHeadStart, Lo: 0, Hi: 1},
			{Name: ParamHeadStart, Lo: 0, Hi: 2}}}, "duplicate"},
		{"inverted", Space{Params: []Param{{Name: ParamHeadStart, Lo: 2, Hi: 1}}}, "inverted"},
		{"empty interval", Space{Params: []Param{{Name: ParamHeadStart, Lo: 1, Hi: 1}}}, "inverted"},
		{"nan lo", Space{Params: []Param{{Name: ParamHeadStart, Lo: math.NaN(), Hi: 1}}}, "finite"},
		{"inf hi", Space{Params: []Param{{Name: ParamHeadStart, Lo: 0, Hi: math.Inf(1)}}}, "finite"},
		{"negative levels", Space{Params: []Param{{Name: ParamHeadStart, Lo: 0, Hi: 1, Levels: -2}}}, "levels"},
	}
	for _, tc := range cases {
		err := tc.space.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
	// Calibrate must refuse an invalid space before simulating anything.
	if _, err := Calibrate(Space{}, Options{}); err == nil {
		t.Error("Calibrate accepted an empty space")
	}
}

// The tentpole guarantee: a fit report is byte-identical between -j 1 and
// -j 8, because every layer under the optimizer is deterministic and the
// optimizer itself never consults the worker count.
func TestFitDeterministicAcrossWorkers(t *testing.T) {
	base := Options{Quick: true, Reps: 1, Frames: 16, Budget: 6}
	render := func(o Options) string {
		fit, err := Calibrate(DefaultSpace(), o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		fit.Render(&buf)
		return buf.String()
	}
	serial := base
	serial.Workers = 1
	parallel := base
	parallel.Workers = 8
	a, b := render(serial), render(parallel)
	if a != b {
		t.Fatalf("fit reports differ between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", a, b)
	}
}

// Every target name must be producible by MeasureCalibration, or the
// objective would silently score a flat penalty for a typo.
func TestTargetsJoinMeasurements(t *testing.T) {
	ms, err := experiments.MeasureCalibration(
		experiments.Options{Reps: 1, Frames: 4, Quick: true}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, m := range ms {
		have[m.Name] = true
	}
	for _, tg := range Targets(false) {
		if !have[tg.Name] {
			t.Errorf("quick target %s has no measurement", tg.Name)
		}
	}
	fig7 := 0
	for _, tg := range Targets(true) {
		if strings.HasPrefix(tg.Name, "fig7.") {
			fig7++
		}
	}
	if fig7 != 3 {
		t.Errorf("full targets carry %d fig7 entries, want 3", fig7)
	}
}

func TestObjectiveScoring(t *testing.T) {
	targets := []Target{{Name: "a", Paper: 10, Weight: 1}}
	perfect := []experiments.CalibMeasurement{{Name: "a", Value: 10}}
	if v := objective(perfect, targets); v != 0 {
		t.Errorf("perfect match scored %g", v)
	}
	// |ln| is symmetric: half and double cost the same.
	half := objective([]experiments.CalibMeasurement{{Name: "a", Value: 5}}, targets)
	double := objective([]experiments.CalibMeasurement{{Name: "a", Value: 20}}, targets)
	if math.Abs(half-double) > 1e-12 {
		t.Errorf("asymmetric objective: half %g, double %g", half, double)
	}
	// Undefined measurement: flat penalty, missing measurement the same.
	undef := objective([]experiments.CalibMeasurement{{Name: "a", Value: math.NaN()}}, targets)
	if undef != 5 {
		t.Errorf("NaN measurement scored %g, want 5", undef)
	}
	if missing := objective(nil, targets); missing != 5 {
		t.Errorf("missing measurement scored %g, want 5", missing)
	}
	// NaN drops surcharge even a perfect value.
	dropped := objective([]experiments.CalibMeasurement{{Name: "a", Value: 10, NaNs: 3}}, targets)
	if math.Abs(dropped-0.3) > 1e-12 {
		t.Errorf("3 NaN drops scored %g, want 0.3", dropped)
	}
}

func TestTuneAppliesEveryLayer(t *testing.T) {
	space := Space{Params: []Param{
		{Name: cluster.ParamSSDReadLat, Lo: 20e-6, Hi: 240e-6},
		{Name: ParamKVSCommit, Lo: 35e-6, Hi: 560e-6},
		{Name: ParamHeadStart, Lo: 0, Hi: 1},
	}}
	if err := space.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := space.Tune([]float64{100e-6, 200e-6, 0.25})(core.Config{})
	if cfg.SpecTune == nil {
		t.Fatal("SpecTune not installed")
	}
	spec := cluster.CoronaProfile(1)
	cfg.SpecTune(&spec)
	if v, _ := spec.Param(cluster.ParamSSDReadLat); math.Abs(v-100e-6) > 1e-9 {
		t.Errorf("ssd.read_lat = %g, want 100µs", v)
	}
	if cfg.DYADOverride == nil || cfg.DYADOverride.KVS.CommitService != 200*time.Microsecond {
		t.Errorf("kvs.commit not applied: %+v", cfg.DYADOverride)
	}
	if cfg.ConsumerHeadStart != 250*time.Millisecond {
		t.Errorf("headstart = %v, want 250ms", cfg.ConsumerHeadStart)
	}
}

func TestRunGoalUnknown(t *testing.T) {
	_, err := RunGoal("no-such-goal", Options{})
	if err == nil {
		t.Fatal("unknown goal accepted")
	}
	for _, g := range Goals() {
		if !strings.Contains(err.Error(), g.ID) {
			t.Errorf("error %q does not list goal %s", err, g.ID)
		}
	}
}
