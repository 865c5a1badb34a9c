package analytics

import (
	"math"
	"testing"

	"repro/internal/frame"
)

// frameOf builds a frame from explicit coordinates.
func frameOf(pos ...[3]float64) *frame.Frame {
	f := &frame.Frame{Model: "T", IDs: make([]uint32, len(pos)), Pos: make([]float64, 3*len(pos))}
	for i, p := range pos {
		f.IDs[i] = uint32(i)
		f.Pos[3*i], f.Pos[3*i+1], f.Pos[3*i+2] = p[0], p[1], p[2]
	}
	return f
}

func TestCentroidAndRg(t *testing.T) {
	f := frameOf([3]float64{0, 0, 0}, [3]float64{2, 0, 0})
	c := Centroid(f)
	if c != [3]float64{1, 0, 0} {
		t.Fatalf("centroid %v", c)
	}
	// Two atoms at distance 1 from centroid: Rg = 1.
	if rg := RadiusOfGyration(f); math.Abs(rg-1) > 1e-12 {
		t.Fatalf("Rg = %v, want 1", rg)
	}
	if RadiusOfGyration(frameOf()) != 0 {
		t.Fatal("empty frame Rg should be 0")
	}
}

func TestRMSD(t *testing.T) {
	a := frameOf([3]float64{0, 0, 0}, [3]float64{1, 0, 0})
	b := frameOf([3]float64{0, 0, 0}, [3]float64{1, 0, 0})
	if d, err := RMSD(a, b); err != nil || d != 0 {
		t.Fatalf("identical RMSD = %v, %v", d, err)
	}
	c := frameOf([3]float64{0, 0, 3}, [3]float64{1, 0, 3})
	d, err := RMSD(a, c)
	if err != nil || math.Abs(d-3) > 1e-12 {
		t.Fatalf("shifted RMSD = %v, want 3 (%v)", d, err)
	}
	if _, err := RMSD(a, frameOf([3]float64{0, 0, 0})); err == nil {
		t.Fatal("mismatched atom counts accepted")
	}
}

func TestEigenvalues3Diagonal(t *testing.T) {
	ev := Eigenvalues3([3][3]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	want := [3]float64{3, 2, 1}
	for i := range ev {
		if math.Abs(ev[i]-want[i]) > 1e-12 {
			t.Fatalf("eigenvalues %v, want %v", ev, want)
		}
	}
}

func TestEigenvalues3Symmetric(t *testing.T) {
	// [[2,1,0],[1,2,0],[0,0,5]] has eigenvalues 5, 3, 1.
	ev := Eigenvalues3([3][3]float64{{2, 1, 0}, {1, 2, 0}, {0, 0, 5}})
	want := [3]float64{5, 3, 1}
	for i := range ev {
		if math.Abs(ev[i]-want[i]) > 1e-9 {
			t.Fatalf("eigenvalues %v, want %v", ev, want)
		}
	}
}

func TestGyrationTensorTraceMatchesRg(t *testing.T) {
	f := frameOf([3]float64{0, 0, 0}, [3]float64{1, 2, 3}, [3]float64{4, 0, 1}, [3]float64{2, 2, 2})
	g := GyrationTensor(f, nil)
	trace := g[0][0] + g[1][1] + g[2][2]
	rg := RadiusOfGyration(f)
	if math.Abs(trace-rg*rg) > 1e-12 {
		t.Fatalf("trace %v != Rg^2 %v", trace, rg*rg)
	}
}

func TestLargestEigenvalueTracksElongation(t *testing.T) {
	compact := frameOf([3]float64{0, 0, 0}, [3]float64{1, 0, 0}, [3]float64{0, 1, 0}, [3]float64{0, 0, 1})
	elongated := frameOf([3]float64{0, 0, 0}, [3]float64{5, 0, 0}, [3]float64{10, 0, 0}, [3]float64{15, 0, 0})
	if LargestEigenvalue(elongated, nil) <= LargestEigenvalue(compact, nil) {
		t.Fatal("elongated structure should have larger dominant eigenvalue")
	}
}

func TestSubsetSelection(t *testing.T) {
	f := frameOf([3]float64{0, 0, 0}, [3]float64{1, 0, 0}, [3]float64{100, 100, 100})
	all := LargestEigenvalue(f, nil)
	sub := LargestEigenvalue(f, []int{0, 1})
	if sub >= all {
		t.Fatalf("subset eigenvalue %v should be far below full %v", sub, all)
	}
}

func TestChangeDetectorFlagsJump(t *testing.T) {
	cd := &ChangeDetector{Threshold: 4, MinSample: 10}
	vals := []float64{10, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.01, 10, 10.03, 9.97, 10.02}
	for _, v := range vals {
		if cd.Observe(v) {
			t.Fatalf("false positive on steady series at %v", v)
		}
	}
	if !cd.Observe(25) {
		t.Fatalf("jump to 25 not detected (z=%v)", cd.ZScore())
	}
	if cd.n != len(vals)+1 {
		t.Fatalf("count %d", cd.n)
	}
}

func TestChangeDetectorWarmup(t *testing.T) {
	cd := &ChangeDetector{Threshold: 3, MinSample: 5}
	// Before MinSample, even wild values must not trigger.
	for _, v := range []float64{1, 100, -50, 3} {
		if cd.Observe(v) {
			t.Fatal("detection fired during warmup")
		}
	}
}

// Regression: a jump after a perfectly constant history used to slip
// through undetected — std is zero, so the z-score branch never ran and
// ZScore kept its previous (stale) value. A departure from a zero-variance
// series is the most unambiguous change there is: it must be detected, with
// a +Inf z-score.
func TestChangeDetectorZeroVarianceJump(t *testing.T) {
	cd := &ChangeDetector{Threshold: 3, MinSample: 3}
	for i := 0; i < 5; i++ {
		if cd.Observe(5) {
			t.Fatal("constant series flagged as change")
		}
		if cd.ZScore() != 0 {
			t.Fatalf("constant series z-score %v, want 0", cd.ZScore())
		}
	}
	if !cd.Observe(9) {
		t.Fatalf("departure from zero-variance series not detected (z=%v)", cd.ZScore())
	}
	if !math.IsInf(cd.ZScore(), 1) {
		t.Fatalf("z-score %v, want +Inf", cd.ZScore())
	}
}

// Regression: ZScore is defined per observation. During warmup it must
// read 0 — not whatever a hypothetical earlier check left behind — and a
// post-warmup in-range value must overwrite a detection's large z-score.
func TestChangeDetectorZScorePerObservation(t *testing.T) {
	cd := &ChangeDetector{Threshold: 4, MinSample: 4}
	for _, v := range []float64{10, 200, -70, 10} {
		cd.Observe(v)
		if cd.ZScore() != 0 {
			t.Fatalf("warmup z-score %v, want 0", cd.ZScore())
		}
	}
	cd.Observe(10) // active: finite z computed against the noisy history
	z1 := cd.ZScore()
	if math.IsInf(z1, 0) || math.IsNaN(z1) {
		t.Fatalf("active z-score %v, want finite", z1)
	}
	cd.Observe(37.5)
	cd.Observe(37.5)
	if cd.ZScore() == z1 && z1 != 0 {
		t.Fatal("z-score not refreshed per observation")
	}
}
