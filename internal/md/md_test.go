package md

import (
	"math"
	"testing"
)

// run advances s by n steps.
func run(s *System, n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// totalEnergy returns kinetic + potential energy.
func totalEnergy(s *System) float64 { return s.KineticEnergy() + s.computeForces() }

// pressure returns the instantaneous virial pressure
// P = (N*k_B*T + W/3) / V with k_B = 1 in reduced units, where the virial
// W sums r_ij . f_ij over every pair within the cutoff (minimum image).
func pressure(s *System) float64 {
	eps, sig2, rc := s.params.Epsilon, s.params.Sigma*s.params.Sigma, s.params.Cutoff
	var w float64
	for i := 0; i < s.N; i++ {
		for j := i + 1; j < s.N; j++ {
			dx := s.minImage(s.Pos[3*i] - s.Pos[3*j])
			dy := s.minImage(s.Pos[3*i+1] - s.Pos[3*j+1])
			dz := s.minImage(s.Pos[3*i+2] - s.Pos[3*j+2])
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= rc*rc || r2 == 0 {
				continue
			}
			sr6 := sig2 * sig2 * sig2 / (r2 * r2 * r2)
			w += 24 * eps * (2*sr6*sr6 - sr6) // f * r2, as pairForce charges it
		}
	}
	volume := s.Box * s.Box * s.Box
	return (float64(s.N)*s.Temperature() + w/3) / volume
}

// momentum returns the total momentum vector.
func momentum(s *System) [3]float64 {
	var m [3]float64
	for i := 0; i < s.N; i++ {
		m[0] += s.Vel[3*i]
		m[1] += s.Vel[3*i+1]
		m[2] += s.Vel[3*i+2]
	}
	return m
}

func TestLatticeConstruction(t *testing.T) {
	s := NewLattice(100, 0.8, 1.0, 7) // rounds up to 5^3 = 125
	if s.N != 125 {
		t.Fatalf("N = %d, want 125", s.N)
	}
	wantBox := math.Cbrt(125 / 0.8)
	if math.Abs(s.Box-wantBox) > 1e-12 {
		t.Fatalf("box %v, want %v", s.Box, wantBox)
	}
	for i, p := range s.Pos {
		if p < 0 || p >= s.Box {
			t.Fatalf("pos[%d]=%v outside box", i, p)
		}
	}
}

func TestInitialTemperatureNearTarget(t *testing.T) {
	s := NewLattice(512, 0.8, 1.5, 3)
	temp := s.Temperature()
	if math.Abs(temp-1.5)/1.5 > 0.15 {
		t.Fatalf("initial temperature %v, want ~1.5", temp)
	}
}

func TestMomentumConserved(t *testing.T) {
	s := NewLattice(125, 0.7, 1.0, 11)
	m0 := momentum(s)
	for d := 0; d < 3; d++ {
		if math.Abs(m0[d]) > 1e-9 {
			t.Fatalf("initial momentum %v not removed", m0)
		}
	}
	run(s, 50)
	m := momentum(s)
	for d := 0; d < 3; d++ {
		if math.Abs(m[d]) > 1e-6 {
			t.Fatalf("momentum drifted to %v after 50 steps", m)
		}
	}
}

func TestEnergyConservationNVE(t *testing.T) {
	s := NewLattice(125, 0.7, 0.8, 5)
	// Let the lattice relax briefly before measuring drift.
	run(s, 50)
	e0 := totalEnergy(s)
	run(s, 400)
	e1 := totalEnergy(s)
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 0.02 {
		t.Fatalf("NVE energy drift %.4f over 400 steps (E %v -> %v)", drift, e0, e1)
	}
}

func TestPositionsStayInBox(t *testing.T) {
	s := NewLattice(64, 0.6, 2.0, 9)
	run(s, 200)
	for i, p := range s.Pos {
		if p < 0 || p >= s.Box {
			t.Fatalf("pos[%d]=%v escaped box [0,%v)", i, p, s.Box)
		}
	}
}

func TestBerendsenPullsTemperature(t *testing.T) {
	s := NewLattice(216, 0.8, 2.0, 13)
	target := 0.5
	for i := 0; i < 300; i++ {
		s.Step()
		s.Berendsen(target, 10)
	}
	temp := s.Temperature()
	if math.Abs(temp-target)/target > 0.25 {
		t.Fatalf("thermostatted temperature %v, want ~%v", temp, target)
	}
}

func TestStepCountAdvances(t *testing.T) {
	s := NewLattice(27, 0.5, 1.0, 1)
	if s.step != 0 {
		t.Fatal("fresh system has nonzero step count")
	}
	run(s, 17)
	if s.step != 17 {
		t.Fatalf("step count %d, want 17", s.step)
	}
}

func TestFrameExportRoundTrips(t *testing.T) {
	s := NewLattice(64, 0.7, 1.0, 21)
	run(s, 5)
	f := s.Frame("LJ64")
	if f.Atoms() != s.N || f.Step != 5 || f.Model != "LJ64" {
		t.Fatalf("frame header wrong: %d atoms step %d model %q", f.Atoms(), f.Step, f.Model)
	}
	for i := 0; i < 3*s.N; i++ {
		if f.Pos[i] != s.Pos[i] {
			t.Fatal("frame positions differ from system")
		}
	}
	// Mutating the system must not change the exported frame.
	run(s, 1)
	if f.Step == s.step {
		t.Fatal("frame step aliased to system")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := NewLattice(64, 0.7, 1.0, 42)
	b := NewLattice(64, 0.7, 1.0, 42)
	run(a, 50)
	run(b, 50)
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatal("same-seed trajectories diverged")
		}
	}
}

func TestForcesAreFinite(t *testing.T) {
	s := NewLattice(125, 0.9, 1.2, 17)
	run(s, 100)
	for i, f := range s.Force {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("force[%d] = %v", i, f)
		}
	}
}

func TestPressureFinitePositiveForDenseFluid(t *testing.T) {
	s := NewLattice(216, 0.8, 1.5, 31)
	run(s, 100)
	p := pressure(s)
	if math.IsNaN(p) || math.IsInf(p, 0) {
		t.Fatalf("pressure %v", p)
	}
	// A dense warm LJ fluid has positive pressure.
	if p <= 0 {
		t.Fatalf("pressure %v, want > 0 at density 0.8, T 1.5", p)
	}
}

func TestPressureIncreasesWithDensity(t *testing.T) {
	measure := func(density float64) float64 {
		s := NewLattice(216, density, 1.5, 7)
		run(s, 100)
		return pressure(s)
	}
	lo, hi := measure(0.4), measure(0.9)
	if hi <= lo {
		t.Fatalf("pressure at density 0.9 (%v) not above density 0.4 (%v)", hi, lo)
	}
}
