package experiments

import "repro/internal/core"

// CalibMeasurement is one named scalar the calibration objective compares
// against its paper target: a Table I/II derivation or a Fig 5–7 headline
// ratio.
type CalibMeasurement struct {
	// Name identifies the measurement ("fig5.cons_total.xfs_over_dyad").
	// Names are stable across builds: calibration targets join on them.
	Name string
	// Value is the measured number — KiB for table1, seconds for table2,
	// a dimensionless ratio for the figure headlines. NaN when the ratio's
	// baseline is zero.
	Value float64
	// NaNs counts NaN observations dropped from the aggregates behind
	// Value; the calibration objective penalizes drops.
	NaNs int
}

// PaperValue is one published number of the paper, under the name of the
// measurement MeasureCalibration compares with it.
type PaperValue struct {
	Name  string
	Paper float64
	// Figure marks a figure's headline ratio; the others are Table I/II
	// entries.
	Figure bool
}

// PaperValues returns the paper value of each of MeasureCalibration's
// measurements, in the same order. The Table I/II values are declared
// beside Table1 and Table2, the Fig 5–7 claims in the ensemble figures'
// table (ensembleFigs); these are the only places they are written.
func PaperValues(full bool) []PaperValue {
	var pv []PaperValue
	for _, t := range tableValues() {
		pv = append(pv, PaperValue{Name: t.name, Paper: t.paper})
	}
	for _, f := range ensembleFigs {
		if f.fullOnly && !full {
			continue
		}
		for _, c := range f.claims {
			pv = append(pv, PaperValue{Name: c.name, Paper: c.paper, Figure: true})
		}
	}
	return pv
}

// MeasureCalibration replays the calibration protocol under tune and
// returns the named measurements in deterministic order. The protocol is
// the paper comparison set that internal/calib fits against: the Table I/II
// derivations (pure model arithmetic — they pin the workload, not the
// hardware) plus the headline claims of each ensemble figure, evaluated on
// the figure's two cells (DYAD and the other backend) at its last quick
// size: Fig 5 at 4 pairs and Fig 6 at 8 pairs. Fig 7 is measured only
// when full is set, on its 64-pair ensemble — the largest size whose cost
// still tolerates being inside an optimizer loop; the paper's per-pair
// breakdowns are scale-stable, so the 256-pair headline ratio transfers.
// PaperValues(full) lists the paper's side in the same order.
//
// tune is applied to every Config before it runs (nil means unmodified);
// it is where calibration installs SpecTune, DYADOverride, and the
// consumer head start. Everything downstream is the ordinary runAgg path
// and the claims are the figures' own, so at quick Options each Fig 5/6
// measurement is the ratio its figure's note prints, byte for byte
// (TestFigureNotesMatchCalibration).
func MeasureCalibration(o Options, tune func(core.Config) core.Config, full bool) ([]CalibMeasurement, error) {
	o = o.Defaults()
	if tune == nil {
		tune = untuned
	}
	var ms []CalibMeasurement
	for _, t := range tableValues() {
		ms = append(ms, CalibMeasurement{Name: t.name, Value: t.model})
	}
	for _, f := range ensembleFigs {
		if f.fullOnly && !full {
			continue
		}
		aggs, err := f.cells(f.calibCell(), o, tune)
		if err != nil {
			return nil, err
		}
		for _, c := range f.claims {
			v, nans := c.eval(aggs)
			ms = append(ms, CalibMeasurement{Name: c.name, Value: v, NaNs: nans})
		}
	}
	return ms, nil
}
