package analytics

import (
	"math"
	"testing"
)

// These tests pin ChangeDetector's behavior on the utilization-series
// shapes the metrics dashboard feeds it (experiments.MetricsCollector uses
// Threshold 3, MinSample 8): steady ramps must not alarm, regime steps
// must alarm at the step, and departures from a flat (zero-variance)
// series must alarm with a +Inf z-score.

// TestChangeDetectorRampNoDetection: a linear ramp never departs its own
// running distribution by 3 sigma — the maximum z-score of the next point
// on a ramp tends to sqrt(3) ~ 1.73, well under the dashboard threshold.
func TestChangeDetectorRampNoDetection(t *testing.T) {
	det := ChangeDetector{Threshold: 3, MinSample: 8}
	for i := 0; i < 200; i++ {
		v := float64(i) / 200 // utilization ramping 0 -> 1
		if det.Observe(v) {
			t.Fatalf("ramp flagged at sample %d (z=%.2f)", i, det.ZScore())
		}
	}
	if det.n != 200 {
		t.Fatalf("count = %d, want 200", det.n)
	}
}

// TestChangeDetectorStepDetectsAtStep: a utilization regime shift (idle
// fraction jumping 0.2 -> 0.8, the fig5 consumer pathology shape) must be
// flagged exactly when the step arrives, not before.
func TestChangeDetectorStepDetectsAtStep(t *testing.T) {
	det := ChangeDetector{Threshold: 3, MinSample: 8}
	const step = 50
	for i := 0; i < step; i++ {
		// Alternate a little noise so the pre-step variance is nonzero.
		v := 0.2
		if i%2 == 1 {
			v = 0.22
		}
		if det.Observe(v) {
			t.Fatalf("flagged before the step, at sample %d", i)
		}
	}
	if !det.Observe(0.8) {
		t.Fatalf("step to 0.8 not flagged (z=%.2f)", det.ZScore())
	}
	if z := det.ZScore(); math.IsInf(z, 1) || z <= 3 {
		t.Fatalf("step z-score = %v, want finite > 3", z)
	}
}

// TestChangeDetectorConstantWithNoise: small jitter around a constant
// level stays unflagged for the whole series.
func TestChangeDetectorConstantWithNoise(t *testing.T) {
	det := ChangeDetector{Threshold: 3, MinSample: 8}
	// Deterministic +-1.5%% wiggle around 0.5: max |z| stays ~1 on a
	// two-level series.
	for i := 0; i < 300; i++ {
		v := 0.5 + 0.015*float64(i%2*2-1)
		if det.Observe(v) {
			t.Fatalf("noisy constant flagged at sample %d (z=%.2f)", i, det.ZScore())
		}
	}
}

// TestChangeDetectorZeroVarianceDeparture: a perfectly flat history (the
// common all-zero utilization series of an unused resource) has zero
// variance; any departure is infinitely many standard deviations away and
// must be flagged with a +Inf z-score.
func TestChangeDetectorZeroVarianceDeparture(t *testing.T) {
	det := ChangeDetector{Threshold: 3, MinSample: 8}
	for i := 0; i < 20; i++ {
		if det.Observe(0) {
			t.Fatalf("flat zero series flagged at sample %d", i)
		}
		if det.ZScore() != 0 {
			t.Fatalf("flat zero series z-score = %v at sample %d, want 0", det.ZScore(), i)
		}
	}
	if !det.Observe(0.3) {
		t.Fatal("departure from zero-variance history not flagged")
	}
	if !math.IsInf(det.ZScore(), 1) {
		t.Fatalf("zero-variance departure z-score = %v, want +Inf", det.ZScore())
	}
}

// TestChangeDetectorUtilizationWarmup: no detection can fire before
// MinSample observations, even for wild swings.
func TestChangeDetectorUtilizationWarmup(t *testing.T) {
	det := ChangeDetector{Threshold: 3, MinSample: 8}
	swings := []float64{0, 100, -100, 1000, 0, 5000, -5000, 42}
	for i, v := range swings {
		if det.Observe(v) {
			t.Fatalf("detection during warmup at sample %d", i)
		}
		if det.ZScore() != 0 {
			t.Fatalf("warmup z-score = %v at sample %d, want 0", det.ZScore(), i)
		}
	}
}
