// Package stats provides the small statistical helpers the experiment
// harness uses to summarize repeated runs: mean, standard deviation,
// min/max, percentiles, and ratio formatting.
package stats

import (
	"fmt"
	"math"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	// NaNs counts NaN inputs dropped from the sample. A nonzero count
	// means an upstream computation produced undefined values (e.g. a
	// ratio over zero) — the summary describes only the defined ones.
	NaNs int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
}

// Summarize computes a Summary of xs. An empty sample yields zeros. NaN
// inputs are filtered out and counted in Summary.NaNs rather than silently
// poisoning every statistic (one NaN would turn Mean, Std, Min and Max into
// garbage).
func Summarize(xs []float64) Summary {
	nans := 0
	for _, x := range xs {
		if math.IsNaN(x) {
			nans++
		}
	}
	if nans == 0 {
		return summarizeDefined(xs)
	}
	valid := make([]float64, 0, len(xs)-nans)
	for _, x := range xs {
		if !math.IsNaN(x) {
			valid = append(valid, x)
		}
	}
	s := summarizeDefined(valid)
	s.NaNs = nans
	return s
}

// summarizeDefined summarizes a NaN-free sample.
func summarizeDefined(xs []float64) Summary {
	var s Summary
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		s.Min, s.Max = min(s.Min, x), max(s.Max, x)
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// Percentile returns the p-th percentile (0-100) of an ascending-sorted
// sample using linear interpolation. The sample must be NaN-free (NaN has
// no rank; Summarize filters NaNs before sorting) — a NaN p returns NaN.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Ratio returns a/b, or NaN when b == 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// FormatRatio renders a speedup ratio as the paper does ("5.3x").
func FormatRatio(r float64) string { return FormatRatioPrec(r, 1) }

// FormatRatioPrec renders a ratio with prec decimal places. Undefined
// ratios — NaN or ±Inf, as produced by dividing through a zero or
// fault-killed baseline — render as "n/a" instead of leaking "NaNx" or
// "+Infx" into reports.
func FormatRatioPrec(r float64, prec int) string {
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%.*fx", prec, r)
}

// FormatSeconds renders a duration in engineering units matching the
// magnitude (µs, ms, s).
func FormatSeconds(sec float64) string {
	switch {
	case sec == 0:
		return "0"
	case sec < 1e-3:
		return fmt.Sprintf("%.1fµs", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.2fms", sec*1e3)
	default:
		return fmt.Sprintf("%.3fs", sec)
	}
}
