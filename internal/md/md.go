// Package md is a small but genuine molecular dynamics engine: a
// Lennard-Jones fluid integrated with velocity Verlet under periodic
// boundary conditions, with cell-list neighbor search and a Berendsen
// thermostat. The examples use it to drive the producer side of the
// workflow with real frames (the measured experiments, like the paper's,
// emulate MD compute with fixed-duration sleeps instead).
//
// Units are reduced LJ units (sigma = epsilon = mass = 1).
package md

import (
	"fmt"
	"math"

	"repro/internal/frame"
)

// Params configures the potential and neighbor search.
type Params struct {
	// Epsilon and Sigma are the LJ well depth and diameter.
	Epsilon, Sigma float64
	// Cutoff is the interaction cutoff radius.
	Cutoff float64
	// Dt is the integration timestep.
	Dt float64
}

// DefaultParams returns standard reduced-unit LJ settings.
func DefaultParams() Params {
	return Params{Epsilon: 1, Sigma: 1, Cutoff: 2.5, Dt: 0.005}
}

// System is one simulation instance.
type System struct {
	N      int
	Box    float64 // cubic box edge
	Pos    []float64
	Vel    []float64
	Force  []float64
	params Params

	step int64

	// cell list scratch
	cells     [][]int32
	cellsDim  int
	neighbors [][3]int

	rng uint64
}

// NewLattice builds a system of n particles on a cubic lattice at the
// given number density, with Maxwell-Boltzmann velocities at temperature
// temp. n is rounded up to the next perfect cube.
func NewLattice(n int, density, temp float64, seed uint64) *System {
	if n < 1 || density <= 0 {
		panic(fmt.Sprintf("md: bad lattice n=%d density=%v", n, density))
	}
	side := int(math.Ceil(math.Cbrt(float64(n))))
	n = side * side * side
	box := math.Cbrt(float64(n) / density)
	s := &System{
		N:      n,
		Box:    box,
		Pos:    make([]float64, 3*n),
		Vel:    make([]float64, 3*n),
		Force:  make([]float64, 3*n),
		params: DefaultParams(),
		rng:    seed | 1,
	}
	spacing := box / float64(side)
	i := 0
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			for z := 0; z < side; z++ {
				s.Pos[3*i] = (float64(x) + 0.5) * spacing
				s.Pos[3*i+1] = (float64(y) + 0.5) * spacing
				s.Pos[3*i+2] = (float64(z) + 0.5) * spacing
				i++
			}
		}
	}
	s.thermalize(temp)
	s.buildCells()
	s.computeForces()
	return s
}

func (s *System) rand() float64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return float64(s.rng%(1<<52)) / (1 << 52)
}

// thermalize draws Maxwell-Boltzmann velocities at temp and removes the
// center-of-mass drift.
func (s *System) thermalize(temp float64) {
	var cm [3]float64
	for i := 0; i < s.N; i++ {
		for d := 0; d < 3; d++ {
			// Box-Muller.
			u1 := s.rand()
			for u1 == 0 {
				u1 = s.rand()
			}
			u2 := s.rand()
			v := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2) * math.Sqrt(temp)
			s.Vel[3*i+d] = v
			cm[d] += v
		}
	}
	for i := 0; i < s.N; i++ {
		for d := 0; d < 3; d++ {
			s.Vel[3*i+d] -= cm[d] / float64(s.N)
		}
	}
}

// buildCells sizes the cell grid from the cutoff.
func (s *System) buildCells() {
	dim := int(s.Box / s.params.Cutoff)
	if dim < 1 {
		dim = 1
	}
	if dim != s.cellsDim {
		s.cellsDim = dim
		s.cells = make([][]int32, dim*dim*dim)
		s.neighbors = s.neighbors[:0]
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					s.neighbors = append(s.neighbors, [3]int{dx, dy, dz})
				}
			}
		}
	}
	for i := range s.cells {
		s.cells[i] = s.cells[i][:0]
	}
	for i := 0; i < s.N; i++ {
		s.cells[s.cellOf(i)] = append(s.cells[s.cellOf(i)], int32(i))
	}
}

func (s *System) cellOf(i int) int {
	d := s.cellsDim
	cw := s.Box / float64(d)
	cx := int(s.Pos[3*i] / cw)
	cy := int(s.Pos[3*i+1] / cw)
	cz := int(s.Pos[3*i+2] / cw)
	if cx >= d {
		cx = d - 1
	}
	if cy >= d {
		cy = d - 1
	}
	if cz >= d {
		cz = d - 1
	}
	return (cx*d+cy)*d + cz
}

// minImage applies the minimum-image convention to a displacement.
func (s *System) minImage(dx float64) float64 {
	if dx > s.Box/2 {
		dx -= s.Box
	} else if dx < -s.Box/2 {
		dx += s.Box
	}
	return dx
}

// computeForces fills Force and returns the potential energy.
func (s *System) computeForces() float64 {
	for i := range s.Force {
		s.Force[i] = 0
	}
	eps, sig, rc := s.params.Epsilon, s.params.Sigma, s.params.Cutoff
	rc2 := rc * rc
	sig2 := sig * sig
	var pot float64
	d := s.cellsDim
	if d < 3 {
		// Too few cells for the 27-stencil to be distinct: wrapped offsets
		// would visit the same cell pair twice and double-count forces.
		// Fall back to all-pairs with minimum image.
		for i := 0; i < s.N; i++ {
			for j := i + 1; j < s.N; j++ {
				pot += s.pairForce(i, j, eps, sig2, rc2)
			}
		}
		return pot
	}
	for cx := 0; cx < d; cx++ {
		for cy := 0; cy < d; cy++ {
			for cz := 0; cz < d; cz++ {
				cell := s.cells[(cx*d+cy)*d+cz]
				for _, nb := range s.neighbors {
					nx, ny, nz := (cx+nb[0]+d)%d, (cy+nb[1]+d)%d, (cz+nb[2]+d)%d
					other := s.cells[(nx*d+ny)*d+nz]
					for _, ia := range cell {
						for _, ib := range other {
							if ib <= ia {
								continue
							}
							pot += s.pairForce(int(ia), int(ib), eps, sig2, rc2)
						}
					}
				}
			}
		}
	}
	return pot
}

// pairForce accumulates the LJ interaction of pair (i, j), returning its
// potential contribution.
func (s *System) pairForce(i, j int, eps, sig2, rc2 float64) float64 {
	dx := s.minImage(s.Pos[3*i] - s.Pos[3*j])
	dy := s.minImage(s.Pos[3*i+1] - s.Pos[3*j+1])
	dz := s.minImage(s.Pos[3*i+2] - s.Pos[3*j+2])
	r2 := dx*dx + dy*dy + dz*dz
	if r2 >= rc2 || r2 == 0 {
		return 0
	}
	sr2 := sig2 / r2
	sr6 := sr2 * sr2 * sr2
	sr12 := sr6 * sr6
	f := 24 * eps * (2*sr12 - sr6) / r2
	s.Force[3*i] += f * dx
	s.Force[3*i+1] += f * dy
	s.Force[3*i+2] += f * dz
	s.Force[3*j] -= f * dx
	s.Force[3*j+1] -= f * dy
	s.Force[3*j+2] -= f * dz
	return 4 * eps * (sr12 - sr6)
}

// Step advances the system one velocity-Verlet step.
func (s *System) Step() {
	dt := s.params.Dt
	for i := 0; i < s.N; i++ {
		for d := 0; d < 3; d++ {
			s.Vel[3*i+d] += 0.5 * dt * s.Force[3*i+d]
			p := s.Pos[3*i+d] + dt*s.Vel[3*i+d]
			// Wrap into the box.
			p = math.Mod(p, s.Box)
			if p < 0 {
				p += s.Box
			}
			s.Pos[3*i+d] = p
		}
	}
	s.buildCells()
	s.computeForces()
	for i := range s.Vel {
		s.Vel[i] += 0.5 * dt * s.Force[i]
	}
	s.step++
}

// Berendsen rescales velocities toward temp with coupling tau (in steps).
func (s *System) Berendsen(temp float64, tau float64) {
	cur := s.Temperature()
	if cur <= 0 {
		return
	}
	lambda := math.Sqrt(1 + (temp/cur-1)/tau)
	for i := range s.Vel {
		s.Vel[i] *= lambda
	}
}

// KineticEnergy returns the total kinetic energy.
func (s *System) KineticEnergy() float64 {
	var ke float64
	for _, v := range s.Vel {
		ke += v * v
	}
	return ke / 2
}

// Temperature returns the instantaneous kinetic temperature.
func (s *System) Temperature() float64 {
	dof := float64(3*s.N - 3)
	return 2 * s.KineticEnergy() / dof
}

// Frame exports the current positions as a serializable MD frame.
func (s *System) Frame(model string) *frame.Frame {
	f := &frame.Frame{
		Model: model,
		Step:  s.step,
		IDs:   make([]uint32, s.N),
		Pos:   append([]float64(nil), s.Pos...),
	}
	for i := range f.IDs {
		f.IDs[i] = uint32(i)
	}
	return f
}
