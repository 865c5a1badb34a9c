package calib

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// Options tune a calibration run.
type Options struct {
	// Reps is repetitions per configuration inside the objective
	// (default 3; quick 2).
	Reps int
	// Frames per pair. Defaults to the paper's 128 even under Quick: the
	// fitted head start is a fixed per-run delay whose optimum scales with
	// the run length, so fitting at a reduced frame count would fit a
	// parameter that breaks the full-scale protocol. Quick shrinks reps
	// and the target set instead.
	Frames int
	// Seed is the base RNG seed (default 0xD1AD), shared by the runs and
	// the optimizer's probe generator.
	Seed uint64
	// Quick fits against the Fig 5–6 targets only (full adds Fig 7's
	// 64-pair ensembles) with fewer reps and a smaller budget.
	Quick bool
	// Workers fans runs out exactly like the experiment harness flag -j;
	// it never changes a single fitted byte.
	Workers int
	// Budget caps fresh objective evaluations (default 96; quick 48).
	// Memoized re-evaluations are free.
	Budget int
}

// Defaults fills unset options.
func (o Options) Defaults() Options {
	if o.Reps == 0 {
		if o.Quick {
			o.Reps = 2
		} else {
			o.Reps = 3
		}
	}
	if o.Frames == 0 {
		o.Frames = 128
	}
	if o.Seed == 0 {
		o.Seed = 0xD1AD
	}
	if o.Budget == 0 {
		if o.Quick {
			o.Budget = 48
		} else {
			o.Budget = 96
		}
	}
	return o
}

// sweep returns the experiment options that run o's protocol: its reps,
// frames, seed and worker count, with every sink off.
func (o Options) sweep() experiments.Options {
	return experiments.Options{
		Reps: o.Reps, Frames: o.Frames, Seed: o.Seed, Quick: o.Quick,
		Workers: o.Workers,
	}
}

// Fit is a completed calibration: the best point found, its objective
// value, and the measurements backing it.
type Fit struct {
	Space   Space
	Opts    Options
	Targets []Target
	// Best holds the fitted value of each Space parameter, same order.
	Best []float64
	// Err is the objective at Best: the weighted mean |ln(measured/paper)|
	// over the targets (0 = every headline exactly reproduced).
	Err float64
	// Evals counts fresh objective evaluations (simulations); CacheHits
	// counts memoized re-visits the optimizer got for free.
	Evals, CacheHits int
	// Measurements are the measured values at Best, in protocol order.
	Measurements []experiments.CalibMeasurement
}

// objective scores measurements against targets: the weighted mean of
// |ln(measured/paper)| per target, so "half the paper ratio" and "twice
// the paper ratio" cost the same. An undefined or non-positive
// measurement costs a flat 5.0 (≈ e^5 ≈ 150x off), and every NaN
// observation dropped upstream adds 0.1 — a fit must not buy accuracy by
// killing runs.
func objective(ms []experiments.CalibMeasurement, targets []Target) float64 {
	byName := make(map[string]experiments.CalibMeasurement, len(ms))
	for _, m := range ms {
		byName[m.Name] = m
	}
	var sum, sumW float64
	for _, t := range targets {
		m, ok := byName[t.Name]
		e := 5.0
		if ok && !math.IsNaN(m.Value) && m.Value > 0 {
			e = math.Abs(math.Log(m.Value / t.Paper))
		}
		e += 0.1 * float64(m.NaNs)
		sum += t.Weight * e
		sumW += t.Weight
	}
	if sumW == 0 {
		return 0
	}
	return sum / sumW
}

// fitter carries one Calibrate invocation's state.
type fitter struct {
	space   Space
	o       Options
	eo      experiments.Options
	targets []Target
	full    bool

	memo   map[string]float64
	evals  int
	hits   int
	nextID int

	best    []float64
	bestErr float64
	bestMs  []experiments.CalibMeasurement

	simErr error
	// log keeps every distinct evaluated point with its insertion id, the
	// deterministic tie-break for simplex seeding and ordering.
	log []evalRec
}

type evalRec struct {
	pt  []float64
	err float64
	id  int
}

// key quantizes a point onto a 1e-4-of-range lattice so float noise from
// different arithmetic paths to the same point shares one memo entry.
func (f *fitter) key(pt []float64) string {
	var sb strings.Builder
	for i, p := range f.space.Params {
		step := (p.Hi - p.Lo) * 1e-4
		fmt.Fprintf(&sb, "%d|", int64(math.Round((pt[i]-p.Lo)/step)))
	}
	return sb.String()
}

// eval scores pt, memoized. ok is false once the budget is exhausted or a
// simulation failed — the optimizer stops asking.
func (f *fitter) eval(pt []float64) (v float64, ok bool) {
	pt = f.space.clampPoint(append([]float64(nil), pt...))
	k := f.key(pt)
	if v, hit := f.memo[k]; hit {
		f.hits++
		return v, true
	}
	if f.simErr != nil || f.evals >= f.o.Budget {
		return 0, false
	}
	f.evals++
	ms, err := experiments.MeasureCalibration(f.eo, f.space.Tune(pt), f.full)
	if err != nil {
		f.simErr = err
		return 0, false
	}
	v = objective(ms, f.targets)
	f.memo[k] = v
	f.log = append(f.log, evalRec{pt: pt, err: v, id: f.nextID})
	f.nextID++
	if f.best == nil || v < f.bestErr {
		f.best = pt
		f.bestErr = v
		f.bestMs = ms
	}
	return v, true
}

// Calibrate fits space against the paper targets: a seeded coarse pass
// (the defaults point, an axial scan per parameter, and six pseudo-random
// probes) followed by bounds-clamped Nelder–Mead refinement seeded from
// the best coarse points. Deterministic: same (space, options) in, same
// fit out, at any Workers.
func Calibrate(space Space, o Options) (*Fit, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	o = o.Defaults()
	f := &fitter{
		space: space, o: o,
		eo:      o.sweep(),
		targets: Targets(!o.Quick),
		full:    !o.Quick,
		memo:    map[string]float64{},
	}

	// Coarse pass: center.
	center := space.defaults()
	f.eval(center)
	// Axial scan: each parameter alone across its levels.
	for i, p := range space.Params {
		n := p.levels()
		for j := 0; j < n; j++ {
			pt := append([]float64(nil), center...)
			if n == 1 {
				pt[i] = (p.Lo + p.Hi) / 2
			} else {
				pt[i] = p.Lo + (p.Hi-p.Lo)*float64(j)/float64(n-1)
			}
			if _, ok := f.eval(pt); !ok {
				break
			}
		}
	}
	// Pseudo-random probes: a seeded LCG, independent of everything else.
	rng := o.Seed*2862933555777941757 + 3037000493
	next := func() float64 {
		rng = rng*2862933555777941757 + 3037000493
		return float64(rng>>11) / float64(1<<53)
	}
	for k := 0; k < 6; k++ {
		pt := make([]float64, len(space.Params))
		for i, p := range space.Params {
			pt[i] = p.Lo + (p.Hi-p.Lo)*next()
		}
		if _, ok := f.eval(pt); !ok {
			break
		}
	}

	f.nelderMead()

	if f.simErr != nil {
		return nil, f.simErr
	}
	if f.best == nil {
		return nil, fmt.Errorf("calib: budget %d too small for a single evaluation", o.Budget)
	}
	return &Fit{
		Space: space, Opts: o, Targets: f.targets,
		Best: f.best, Err: f.bestErr,
		Evals: f.evals, CacheHits: f.hits,
		Measurements: f.bestMs,
	}, nil
}

// nelderMead refines from the best coarse points until the budget runs
// out or the simplex collapses. Ordering ties break on insertion id, so
// the walk is reproducible.
func (f *fitter) nelderMead() {
	n := len(f.space.Params)
	if len(f.log) < n+1 {
		return
	}
	simplex := append([]evalRec(nil), f.log...)
	sortRecs(simplex)
	simplex = simplex[:n+1]

	const alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
	for iter := 0; iter < 10*f.o.Budget; iter++ {
		sortRecs(simplex)
		if simplex[n].err-simplex[0].err < 1e-4 {
			return // converged: the simplex is flat
		}
		// Centroid of all but the worst.
		centroid := make([]float64, n)
		for _, r := range simplex[:n] {
			for i, v := range r.pt {
				centroid[i] += v / float64(n)
			}
		}
		worst := simplex[n]
		mix := func(a float64) []float64 {
			pt := make([]float64, n)
			for i := range pt {
				pt[i] = centroid[i] + a*(centroid[i]-worst.pt[i])
			}
			return f.space.clampPoint(pt)
		}
		accept := func(pt []float64, err float64) {
			simplex[n] = evalRec{pt: pt, err: err, id: f.nextID}
			f.nextID++
		}
		refl := mix(alpha)
		fr, ok := f.eval(refl)
		if !ok {
			return
		}
		switch {
		case fr < simplex[0].err:
			exp := mix(gamma)
			fe, ok := f.eval(exp)
			if !ok {
				return
			}
			if fe < fr {
				accept(exp, fe)
			} else {
				accept(refl, fr)
			}
		case fr < simplex[n-1].err:
			accept(refl, fr)
		default:
			con := mix(-rho)
			fc, ok := f.eval(con)
			if !ok {
				return
			}
			if fc < worst.err {
				accept(con, fc)
			} else {
				// Shrink toward the best vertex.
				for j := 1; j <= n; j++ {
					pt := make([]float64, n)
					for i := range pt {
						pt[i] = simplex[0].pt[i] + sigma*(simplex[j].pt[i]-simplex[0].pt[i])
					}
					pt = f.space.clampPoint(pt)
					fv, ok := f.eval(pt)
					if !ok {
						return
					}
					simplex[j] = evalRec{pt: pt, err: fv, id: f.nextID}
					f.nextID++
				}
			}
		}
	}
}

func sortRecs(recs []evalRec) {
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].err != recs[j].err {
			return recs[i].err < recs[j].err
		}
		return recs[i].id < recs[j].id
	})
}

// fmtParam renders a fitted value in its natural unit: second-valued
// parameters in engineering notation, bandwidths in GB/s.
func fmtParam(name string, v float64) string {
	if strings.Contains(name, "bw") || strings.Contains(name, "bandwidth") {
		return fmt.Sprintf("%.3g GB/s", v/1e9)
	}
	switch {
	case v == 0:
		return "0s"
	case v < 1e-3:
		return fmt.Sprintf("%.4gµs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.4gms", v*1e3)
	default:
		return fmt.Sprintf("%.4gs", v)
	}
}

// Render writes the fit report: the fitted parameters, then every target
// with its measured value and relative error. Byte-identical for any
// worker count — TestOutputDigests' calibrate legs at -j 1 and -j 8 match
// one pinned digest.
func (f *Fit) Render(w io.Writer) {
	mode := "full"
	if f.Opts.Quick {
		mode = "quick"
	}
	fmt.Fprintf(w, "== calibrate — deterministic cost-model fit (%s) ==\n", mode)
	fmt.Fprintf(w, "protocol: reps=%d frames=%d seed=%#x budget=%d\n",
		f.Opts.Reps, f.Opts.Frames, f.Opts.Seed, f.Opts.Budget)
	fmt.Fprintf(w, "objective: %.6f (weighted mean |ln(measured/paper)|) after %d evaluations (%d memoized)\n",
		f.Err, f.Evals, f.CacheHits)
	fmt.Fprintln(w, "fitted parameters:")
	for i, p := range f.Space.Params {
		fmt.Fprintf(w, "  %-16s %-12s (bounds [%s, %s])\n",
			p.Name, fmtParam(p.Name, f.Best[i]), fmtParam(p.Name, p.Lo), fmtParam(p.Name, p.Hi))
	}
	byName := make(map[string]experiments.CalibMeasurement, len(f.Measurements))
	for _, m := range f.Measurements {
		byName[m.Name] = m
	}
	fmt.Fprintln(w, "targets:")
	for _, t := range f.Targets {
		m, ok := byName[t.Name]
		if !ok || math.IsNaN(m.Value) {
			fmt.Fprintf(w, "  %-32s paper %-10.4g measured n/a\n", t.Name, t.Paper)
			continue
		}
		fmt.Fprintf(w, "  %-32s paper %-10.4g measured %-10.4g rel %+0.1f%%\n",
			t.Name, t.Paper, m.Value, 100*(m.Value/t.Paper-1))
	}
}
