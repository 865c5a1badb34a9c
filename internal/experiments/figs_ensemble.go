package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// ensembleFig declares one of the paper's ensemble-scaling figures (Fig
// 5–7): DYAD against one other backend on JAC, over a list of ensemble
// sizes, with three headline claims read at the largest size. Its run
// method is the experiment (All); MeasureCalibration, PaperValues and
// ExplainTargets read the same declaration.
type ensembleFig struct {
	id, title  string
	other      core.Backend
	singleNode bool
	sizes      []int
	quickSizes []int // the sizes under Options.Quick; nil: sizes
	nodesCol   bool  // the table has a compute-nodes column
	fullOnly   bool  // calibrated only at the full protocol: its cell is too costly for a quick fit
	claims     [3]figClaim
}

// figClaim is one headline ratio: a per-pair quantity of one backend over
// the same quantity of the other.
type figClaim struct {
	name     string // the stable measurement name calibration joins on
	label    string // heads the figure's note
	paper    float64
	q        quantity
	dyadOver bool // DYAD is the numerator; otherwise the other backend is
}

// quantity reads one per-pair mean of an aggregate and the NaN
// observations dropped from the summaries behind it.
type quantity func(core.Aggregate) (mean float64, nans int)

func prodTotal(a core.Aggregate) (float64, int) {
	return a.ProdTotalMean(), a.ProdMovement.NaNs + a.ProdIdle.NaNs
}
func prodMove(a core.Aggregate) (float64, int) { return a.ProdMovement.Mean, a.ProdMovement.NaNs }
func consMove(a core.Aggregate) (float64, int) { return a.ConsMovement.Mean, a.ConsMovement.NaNs }
func consTotal(a core.Aggregate) (float64, int) {
	return a.ConsTotalMean(), a.ConsMovement.NaNs + a.ConsIdle.NaNs
}

// eval returns the claim's ratio over the [DYAD, other] aggregates and the
// NaN observations both sides dropped.
func (c figClaim) eval(aggs [2]core.Aggregate) (float64, int) {
	num, den := aggs[1], aggs[0]
	if c.dyadOver {
		num, den = den, num
	}
	n, nn := c.q(num)
	d, dn := c.q(den)
	return stats.Ratio(n, d), nn + dn
}

// The specs of Fig 5 (single-node, DYAD vs XFS), Fig 6 (two node groups,
// producers | consumers, DYAD vs Lustre) and Fig 7 (8 producers per node,
// up to 256 pairs over 64 nodes, DYAD vs Lustre). The paper's values are
// transcribed from §IV, Figures 5–7.
var (
	fig5Spec = ensembleFig{
		id:    "fig5",
		title: "Single-node ensemble scaling, DYAD vs XFS (JAC, stride 880)",
		other: core.XFS, singleNode: true,
		sizes: []int{1, 2, 4},
		claims: [3]figClaim{
			{"fig5.prod_total.dyad_over_xfs", "DYAD/XFS production time (4 pairs)", 1.4, prodTotal, true},
			{"fig5.cons_move.dyad_over_xfs", "DYAD/XFS consumption data movement (4 pairs)", 1.4, consMove, true},
			{"fig5.cons_total.xfs_over_dyad", "XFS/DYAD overall consumption (4 pairs)", 192.9, consTotal, false},
		},
	}
	fig6Spec = ensembleFig{
		id:    "fig6",
		title: "Two-node ensemble scaling, DYAD vs Lustre (JAC, stride 880)",
		other: core.Lustre,
		sizes: []int{1, 2, 4, 8},
		claims: [3]figClaim{
			{"fig6.prod_move.lustre_over_dyad", "Lustre/DYAD producer data movement (8 pairs)", 7.5, prodMove, false},
			{"fig6.cons_move.lustre_over_dyad", "Lustre/DYAD consumer data movement (8 pairs)", 6.9, consMove, false},
			{"fig6.cons_total.lustre_over_dyad", "Lustre/DYAD overall consumption (8 pairs)", 197.4, consTotal, false},
		},
	}
	fig7Spec = ensembleFig{
		id:         "fig7",
		title:      "Multi-node ensemble scaling, DYAD vs Lustre (JAC, stride 880)",
		other:      core.Lustre,
		sizes:      []int{8, 16, 32, 64, 128, 256},
		quickSizes: []int{8, 16, 32, 64},
		nodesCol:   true,
		fullOnly:   true,
		claims: [3]figClaim{
			{"fig7.prod_move.lustre_over_dyad", "Lustre/DYAD producer data movement (largest ensemble)", 5.3, prodMove, false},
			{"fig7.cons_move.lustre_over_dyad", "Lustre/DYAD consumer data movement (largest ensemble)", 5.8, consMove, false},
			{"fig7.cons_total.lustre_over_dyad", "Lustre/DYAD overall consumption (largest ensemble)", 192.0, consTotal, false},
		},
	}
	// ensembleFigs is every ensemble figure, in calibration order.
	ensembleFigs = []*ensembleFig{&fig5Spec, &fig6Spec, &fig7Spec}
)

// config is the figure's workload at one ensemble size, Backend unset.
func (f *ensembleFig) config(pairs int) core.Config {
	return core.Config{Model: mustModel("JAC"), Pairs: pairs, SingleNode: f.singleNode}
}

func (f *ensembleFig) sizesFor(quick bool) []int {
	if quick && f.quickSizes != nil {
		return f.quickSizes
	}
	return f.sizes
}

// calibCell is the workload at the figure's last quick size: where
// MeasureCalibration evaluates the claims and explain diffs the backends.
func (f *ensembleFig) calibCell() core.Config {
	q := f.sizesFor(true)
	return f.config(q[len(q)-1])
}

// cells runs base under DYAD and under the other backend, each through
// tune, and returns their [DYAD, other] aggregates.
func (f *ensembleFig) cells(base core.Config, o Options, tune func(core.Config) core.Config) (aggs [2]core.Aggregate, err error) {
	for i, b := range []core.Backend{core.DYAD, f.other} {
		base.Backend = b
		if aggs[i], err = runAgg(tune(base), o); err != nil {
			return aggs, err
		}
	}
	return aggs, nil
}

func untuned(c core.Config) core.Config { return c }

// run renders the figure: one row per size and backend, then one note per
// claim at the largest size.
func (f *ensembleFig) run(o Options) (*Report, error) {
	o = o.Defaults()
	cols := []string{"backend", "pairs"}
	if f.nodesCol {
		cols = append(cols, "nodes")
	}
	r := &Report{ID: f.id, Title: f.title, Columns: append(cols, stdCols...)}
	var aggs [2]core.Aggregate
	for _, pairs := range f.sizesFor(o.Quick) {
		cfg := f.config(pairs)
		var err error
		if aggs, err = f.cells(cfg, o, untuned); err != nil {
			return nil, err
		}
		for i, b := range []core.Backend{core.DYAD, f.other} {
			row := []string{b.String(), fmt.Sprintf("%d", pairs)}
			if f.nodesCol {
				row = append(row, fmt.Sprintf("%d", cfg.ComputeNodes()))
			}
			r.Rows = append(r.Rows, append(row, aggRow(aggs[i])...))
		}
	}
	for _, c := range f.claims {
		v, _ := c.eval(aggs)
		r.Notes = append(r.Notes, ratioNote(c.label, c.paper, v))
	}
	return r, nil
}
