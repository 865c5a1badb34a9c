// Package analytics implements the in situ analysis kernels the paper's
// workflow feeds with MD frames: structural metrics (radius of gyration,
// RMSD), the gyration-tensor eigenvalue analysis used to track secondary
// structures (the Helix 1-2 / Helix 1-3 example of Figure 1), and a
// change detector that flags sudden conformational events at runtime.
package analytics

import (
	"fmt"
	"math"

	"repro/internal/frame"
)

// Centroid returns the mean position of the frame's atoms.
func Centroid(f *frame.Frame) [3]float64 {
	var c [3]float64
	n := f.Atoms()
	if n == 0 {
		return c
	}
	for i := 0; i < n; i++ {
		c[0] += f.Pos[3*i]
		c[1] += f.Pos[3*i+1]
		c[2] += f.Pos[3*i+2]
	}
	for d := range c {
		c[d] /= float64(n)
	}
	return c
}

// RadiusOfGyration returns the frame's radius of gyration.
func RadiusOfGyration(f *frame.Frame) float64 {
	n := f.Atoms()
	if n == 0 {
		return 0
	}
	c := Centroid(f)
	var sum float64
	for i := 0; i < n; i++ {
		dx := f.Pos[3*i] - c[0]
		dy := f.Pos[3*i+1] - c[1]
		dz := f.Pos[3*i+2] - c[2]
		sum += dx*dx + dy*dy + dz*dz
	}
	return math.Sqrt(sum / float64(n))
}

// RMSD returns the root-mean-square deviation between two frames with the
// same atom count (no superposition; frames share a reference frame).
func RMSD(a, b *frame.Frame) (float64, error) {
	if a.Atoms() != b.Atoms() {
		return 0, fmt.Errorf("analytics: RMSD over %d vs %d atoms", a.Atoms(), b.Atoms())
	}
	if a.Atoms() == 0 {
		return 0, nil
	}
	var sum float64
	for i := range a.Pos {
		d := a.Pos[i] - b.Pos[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(a.Atoms())), nil
}

// GyrationTensor computes the 3x3 gyration tensor of a subset of atoms
// (nil subset = all atoms).
func GyrationTensor(f *frame.Frame, subset []int) [3][3]float64 {
	idx := subset
	if idx == nil {
		idx = make([]int, f.Atoms())
		for i := range idx {
			idx[i] = i
		}
	}
	var t [3][3]float64
	if len(idx) == 0 {
		return t
	}
	var c [3]float64
	for _, i := range idx {
		c[0] += f.Pos[3*i]
		c[1] += f.Pos[3*i+1]
		c[2] += f.Pos[3*i+2]
	}
	for d := range c {
		c[d] /= float64(len(idx))
	}
	for _, i := range idx {
		r := [3]float64{f.Pos[3*i] - c[0], f.Pos[3*i+1] - c[1], f.Pos[3*i+2] - c[2]}
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				t[a][b] += r[a] * r[b]
			}
		}
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			t[a][b] /= float64(len(idx))
		}
	}
	return t
}

// Eigenvalues3 returns the eigenvalues of a symmetric 3x3 matrix in
// descending order (analytic solution via the characteristic polynomial).
func Eigenvalues3(m [3][3]float64) [3]float64 {
	p1 := m[0][1]*m[0][1] + m[0][2]*m[0][2] + m[1][2]*m[1][2]
	if p1 == 0 {
		// Diagonal.
		ev := [3]float64{m[0][0], m[1][1], m[2][2]}
		sortDesc(&ev)
		return ev
	}
	q := (m[0][0] + m[1][1] + m[2][2]) / 3
	p2 := (m[0][0]-q)*(m[0][0]-q) + (m[1][1]-q)*(m[1][1]-q) + (m[2][2]-q)*(m[2][2]-q) + 2*p1
	p := math.Sqrt(p2 / 6)
	var b [3][3]float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			b[i][j] = m[i][j]
			if i == j {
				b[i][j] -= q
			}
			b[i][j] /= p
		}
	}
	r := det3(b) / 2
	if r < -1 {
		r = -1
	} else if r > 1 {
		r = 1
	}
	phi := math.Acos(r) / 3
	e1 := q + 2*p*math.Cos(phi)
	e3 := q + 2*p*math.Cos(phi+2*math.Pi/3)
	e2 := 3*q - e1 - e3
	ev := [3]float64{e1, e2, e3}
	sortDesc(&ev)
	return ev
}

func det3(m [3][3]float64) float64 {
	return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
}

func sortDesc(ev *[3]float64) {
	if ev[0] < ev[1] {
		ev[0], ev[1] = ev[1], ev[0]
	}
	if ev[1] < ev[2] {
		ev[1], ev[2] = ev[2], ev[1]
	}
	if ev[0] < ev[1] {
		ev[0], ev[1] = ev[1], ev[0]
	}
}

// LargestEigenvalue returns the dominant eigenvalue of the gyration tensor
// of a subset — the quantity the paper's Figure 1 analytics track per
// helix over time.
func LargestEigenvalue(f *frame.Frame, subset []int) float64 {
	return Eigenvalues3(GyrationTensor(f, subset))[0]
}

// ChangeDetector tracks a scalar time series online and flags points whose
// deviation from the running mean exceeds Threshold standard deviations —
// the "sudden changes in the molecular model" trigger of Figure 1.
type ChangeDetector struct {
	Threshold float64 // z-score threshold (e.g. 3)
	MinSample int     // observations before detection activates

	n          int
	mean, m2   float64
	lastZScore float64
}

// Observe feeds one value, reporting whether it is a sudden change.
func (c *ChangeDetector) Observe(x float64) bool {
	detected := false
	// The z-score is defined per observation: recompute it on every call so
	// ZScore never reports a stale value from an earlier check (it used to
	// survive warmup and zero-variance observations unchanged).
	c.lastZScore = 0
	if c.n >= c.MinSample && c.n > 1 {
		std := math.Sqrt(c.m2 / float64(c.n-1))
		switch {
		case std > 0:
			c.lastZScore = math.Abs(x-c.mean) / std
			detected = c.lastZScore > c.Threshold
		case x != c.mean:
			// Zero-variance history: any departure from the constant series
			// is infinitely many standard deviations away. Flag it.
			c.lastZScore = math.Inf(1)
			detected = true
		}
	}
	// Welford update.
	c.n++
	delta := x - c.mean
	c.mean += delta / float64(c.n)
	c.m2 += delta * (x - c.mean)
	return detected
}

// ZScore returns the z-score of the most recent observation's detection
// check: 0 during warmup (fewer than MinSample prior observations) and for
// a value matching a zero-variance history, +Inf for a value departing a
// zero-variance history.
func (c *ChangeDetector) ZScore() float64 { return c.lastZScore }
