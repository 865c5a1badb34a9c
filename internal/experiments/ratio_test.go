package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// A headline ratio over a fault-killed or zero baseline is undefined; the
// note must say "n/a", never leak fmt's "NaNx"/"+Infx" into a report.
func TestRatioNoteUndefinedRendersNA(t *testing.T) {
	for _, r := range []float64{math.NaN(), math.Inf(1)} {
		note := ratioNote("XFS/DYAD overall consumption", 192.9, r)
		if !strings.Contains(note, "measured n/a") {
			t.Errorf("ratioNote(%v) = %q, want measured n/a", r, note)
		}
		if strings.Contains(note, "NaN") || strings.Contains(note, "Inf") {
			t.Errorf("ratioNote(%v) leaks the undefined value: %q", r, note)
		}
	}
	// Defined ratios keep the historical format byte-for-byte.
	if got := ratioNote("x", 1.4, 1.37); got != "x: paper 1.4x, measured 1.4x" {
		t.Errorf("ratioNote defined = %q", got)
	}
}

// MeasureCalibration is the calibration objective's data source: its names
// and order must be stable, and two identical invocations byte-identical.
func TestMeasureCalibrationDeterministicNames(t *testing.T) {
	o := Options{Reps: 1, Frames: 4, Quick: true}
	first, err := MeasureCalibration(o, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	second, err := MeasureCalibration(o, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("measurement %d differs: %+v vs %+v", i, first[i], second[i])
		}
	}
	want := []string{
		"table1.frame_kib.JAC",
		"table2.freq_s.JAC",
		"fig5.prod_total.dyad_over_xfs",
		"fig5.cons_move.dyad_over_xfs",
		"fig5.cons_total.xfs_over_dyad",
		"fig6.prod_move.lustre_over_dyad",
		"fig6.cons_move.lustre_over_dyad",
		"fig6.cons_total.lustre_over_dyad",
	}
	have := map[string]bool{}
	for _, m := range first {
		have[m.Name] = true
		if strings.HasPrefix(m.Name, "fig7.") {
			t.Errorf("fig7 measurement %s present without full", m.Name)
		}
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("missing measurement %s", name)
		}
	}
}

// Calibration evaluates the figures' own claims on the figures' own
// largest cells, so at the same quick Options each Fig 5/6 note prints
// exactly the paper value and measured ratio calibration fits.
func TestFigureNotesMatchCalibration(t *testing.T) {
	o := Options{Reps: 1, Frames: 4, Quick: true}
	ms, err := MeasureCalibration(o, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]float64{}
	for _, m := range ms {
		measured[m.Name] = m.Value
	}
	for _, fig := range []*ensembleFig{&fig5Spec, &fig6Spec} {
		r, err := fig.run(o)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range fig.claims {
			v, ok := measured[c.name]
			if !ok {
				t.Errorf("%s: no calibration measurement", c.name)
				continue
			}
			var note string
			for _, n := range r.Notes {
				if strings.HasPrefix(n, c.label+":") {
					note = n
				}
			}
			paper := fmt.Sprintf("paper %.1fx", c.paper)
			got := "measured " + stats.FormatRatioPrec(v, 1)
			if !strings.Contains(note, paper) || !strings.Contains(note, got) {
				t.Errorf("%s: note %q, want %q and %q", c.name, note, paper, got)
			}
		}
	}
}

// The tune hook must reach every run: a head start fitted by calibration
// shrinks the DYAD idle column, so the Fig 5 consumption ratio must move.
func TestMeasureCalibrationTuneTakesEffect(t *testing.T) {
	o := Options{Reps: 1, Frames: 8, Quick: true}
	base, err := MeasureCalibration(o, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := MeasureCalibration(o, func(c core.Config) core.Config {
		c.ConsumerHeadStart = 200 * time.Millisecond
		return c
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	pick := func(ms []CalibMeasurement, name string) float64 {
		for _, m := range ms {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("measurement %s missing", name)
		return 0
	}
	const headline = "fig5.cons_total.xfs_over_dyad"
	if b, tu := pick(base, headline), pick(tuned, headline); !(tu > b) {
		t.Errorf("head start did not raise %s: base %.2f, tuned %.2f", headline, b, tu)
	}
	// The workload-derivation measurements never move with hardware tuning.
	if pick(base, "table2.freq_s.JAC") != pick(tuned, "table2.freq_s.JAC") {
		t.Error("table2 measurement moved under a hardware tune")
	}
}
