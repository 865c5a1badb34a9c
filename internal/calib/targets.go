package calib

import "repro/internal/experiments"

// Target is one published paper number the objective pulls toward,
// joined to a measurement by name (experiments.MeasureCalibration emits
// the measured side under the same names).
type Target struct {
	Name  string
	Paper float64
	// Weight scales this target's share of the objective. The table
	// derivations are workload bookkeeping (they cannot move under a
	// hardware tune, but anchor the objective against a fit that breaks
	// the workload); the figure ratios are the numbers the paper is about.
	Weight float64
}

// Targets returns the objective's targets: experiments.PaperValues(full),
// the paper side of MeasureCalibration's measurements — Table I frame
// sizes (KiB), Table II frequencies (seconds) and the Fig 5–6 headline
// claims, with Fig 7's when full — weighted 0.25 for a table entry and 1
// for a figure claim. The values themselves are declared in
// internal/experiments, beside the tables and figures that print them.
func Targets(full bool) []Target {
	var t []Target
	for _, pv := range experiments.PaperValues(full) {
		w := 0.25
		if pv.Figure {
			w = 1
		}
		t = append(t, Target{Name: pv.Name, Paper: pv.Paper, Weight: w})
	}
	return t
}
