package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/stats"
)

// CritCollector gathers the critical-path summaries recorded on one
// repetition per configuration across an experiment sweep. It folds each
// into blame rows (which labeled regions the gating chain executed, and
// which synchronization waits it flowed through) and keeps every run's
// frame lineages for waterfall CSV export.
//
// Pass one through Options.CritPath to enable recording: each experiment
// then records the dependency graph on one repetition per configuration
// (recording is observation-only, so measurements are unchanged) and the
// driver drains the blame rows into a report after each experiment.
type CritCollector struct {
	// Lineages holds every recorded run's frame provenance in collection
	// order, ready for critpath.WriteWaterfall.
	Lineages []critpath.LineageSet

	rows  [][]string
	notes []string
}

// NewCritCollector returns an empty collector.
func NewCritCollector() *CritCollector { return &CritCollector{} }

// critCols is the column set of the drained critical-path report. Rows of
// kind run/wait are blame buckets (time the gating chain executed under
// that label); rows of kind gated are the synchronization waits the chain
// flowed through before a release redirected it to the releaser (their
// time is blamed on the releaser's rows, not double-counted).
var critCols = []string{"config", "class", "component", "name", "kind", "total", "steps", "share"}

// critShare renders d as a percentage of the makespan.
func critShare(d, makespan time.Duration) string {
	if makespan <= 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(d)/float64(makespan))
}

// Add records every result in the batch that carries a critical-path
// summary: its blame rows, gated-wait rows, and frame lineages. Results
// without one (unrecorded repetitions, runs killed by an injected fault)
// are skipped.
func (c *CritCollector) Add(label string, results []*core.Result) {
	for _, res := range results {
		if res == nil || res.Crit == nil {
			continue
		}
		p := res.Crit.Path
		for _, row := range p.Rows {
			c.rows = append(c.rows, []string{
				label, row.Class.String(), row.Component, row.Name, row.Kind,
				fmtDur(row.Total), fmt.Sprintf("%d", row.Steps), critShare(row.Total, p.Makespan),
			})
		}
		for _, w := range p.Waits {
			c.rows = append(c.rows, []string{
				label, w.Class.String(), w.Component, w.Name, "gated",
				fmtDur(w.Gated), fmt.Sprintf("%d", w.Count), critShare(w.Gated, p.Makespan),
			})
		}
		c.notes = append(c.notes, fmt.Sprintf(
			"%s: makespan %s, attributed %s (%s), untracked %s, %d path steps over %d release edges",
			label, fmtDur(p.Makespan), fmtDur(p.Attributed), critShare(p.Attributed, p.Makespan),
			fmtDur(p.Untracked), p.Steps, p.Edges))
		c.Lineages = append(c.Lineages, critpath.LineageSet{Label: label, Frames: res.Crit.Frames})
	}
}

// Drain returns the blame rows accumulated since the last call as a
// report, or nil if no recorded run contributed. The pending rows are
// cleared; the lineages are kept.
func (c *CritCollector) Drain(id string) *Report {
	if c == nil || len(c.rows) == 0 {
		return nil
	}
	r := &Report{
		ID:      id + "-critpath",
		Title:   "critical-path blame (gating chain per config; gated rows flow through, not added)",
		Columns: critCols,
		Rows:    c.rows,
		Notes:   c.notes,
	}
	c.rows, c.notes = nil, nil
	return r
}

// WriteWaterfall writes every collected run's frame lineages as a
// long-format waterfall CSV (one row per provenance hop).
func (c *CritCollector) WriteWaterfall(w io.Writer) error {
	return critpath.WriteWaterfall(w, c.Lineages)
}

// ExplainTarget is one workload the explain subcommand can diff: the same
// configuration run under DYAD and under a traditional backend.
type ExplainTarget struct {
	ID    string
	Title string
	// Base is the workload; Explain runs it once with Backend DYAD and once
	// with Other, critical-path recording on.
	Base  core.Config
	Other core.Backend
}

// ExplainTargets lists the available differential workloads: the
// calibration cell of the single-node Fig 5 comparison (DYAD vs XFS) and
// of the two-node Fig 6 comparison (DYAD vs Lustre), each the figure's
// largest ensemble.
func ExplainTargets() []ExplainTarget {
	return []ExplainTarget{
		{
			ID:    fig5Spec.id,
			Title: "single-node 4-pair JAC workload, DYAD vs XFS (Fig 5 largest ensemble)",
			Base:  fig5Spec.calibCell(),
			Other: fig5Spec.other,
		},
		{
			ID:    fig6Spec.id,
			Title: "two-node 8-pair JAC workload, DYAD vs Lustre (Fig 6 largest ensemble)",
			Base:  fig6Spec.calibCell(),
			Other: fig6Spec.other,
		},
	}
}

// ExplainTargetByID returns the explain workload with the given id, or an
// error listing every valid id.
func ExplainTargetByID(id string) (ExplainTarget, error) {
	var ids []string
	for _, t := range ExplainTargets() {
		if t.ID == id {
			return t, nil
		}
		ids = append(ids, t.ID)
	}
	return ExplainTarget{}, fmt.Errorf("unknown explain target %q (have %s)", id, strings.Join(ids, ", "))
}

// Explain runs one workload under DYAD and under the target's traditional
// backend with critical-path recording on, extracts both gating chains,
// and diffs them edge-by-edge: every makespan-gap contribution is
// attributed to a named graph edge (blame bucket), so the report answers
// "where exactly does the ratio come from?" rather than only "how big is
// it?". Single run per side — the graphs are deterministic, so repetition
// adds nothing but jitter in the compute rows.
func Explain(targetID string, o Options) (*Report, error) {
	o = o.Defaults()
	target, err := ExplainTargetByID(targetID)
	if err != nil {
		return nil, err
	}

	a := target.Base
	a.Backend = core.DYAD
	a.CritPath = true
	b := a
	b.Backend = target.Other
	runs, err := o.Run([]Cell{{Cfg: a, Reps: 1}, {Cfg: b, Reps: 1}})
	if err != nil {
		return nil, err
	}
	resA, resB := runs[0][0], runs[1][0]
	labelA, labelB := core.DYAD.String(), target.Other.String()
	diff := critpath.Diff(labelA, resA.Crit.Path, labelB, resB.Crit.Path)

	r := &Report{
		ID:      "explain:" + target.ID,
		Title:   "differential critical path — " + target.Title,
		Columns: []string{"class", "component", "name", "kind", labelA, labelB, "delta", "gap_share"},
	}
	for _, row := range diff.Rows {
		share := "n/a"
		if diff.Gap != 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(row.Delta)/float64(diff.Gap))
		}
		r.Rows = append(r.Rows, []string{
			row.Class.String(), row.Component, row.Name, row.Kind,
			fmtDur(row.A), fmtDur(row.B), fmtDur(row.Delta), share,
		})
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"makespan: %s %s vs %s %s — gap %s (%s of %s makespan)",
		labelA, fmtDur(diff.MakespanA), labelB, fmtDur(diff.MakespanB),
		fmtDur(diff.Gap), critShare(diff.Gap, diff.MakespanB), labelB))
	r.Notes = append(r.Notes, fmt.Sprintf(
		"attribution: %.1f%% of the gap is on named graph edges (untracked: %s %s, %s %s)",
		diff.AttributionPct(), labelA, fmtDur(diff.UntrackedA), labelB, fmtDur(diff.UntrackedB)))
	if len(diff.Rows) > 0 && diff.Gap > 0 {
		top := diff.Rows[0]
		r.Notes = append(r.Notes, fmt.Sprintf(
			"top edge: %s %s/%s %s explains %.1f%% of the gap (%s -> %s)",
			top.Class, top.Component, top.Name, top.Kind,
			100*float64(top.Delta)/float64(diff.Gap), fmtDur(top.A), fmtDur(top.B)))
	}
	// The consumption-ratio headline next to the edge it decomposes into:
	// the paper's "how big", this report's "where from".
	consA := resA.Consumer.Sum().Seconds()
	consB := resB.Consumer.Sum().Seconds()
	r.Notes = append(r.Notes, fmt.Sprintf(
		"%s/%s overall consumption: %s (paper Fig 5-6 headline ratio decomposed above)",
		labelB, labelA, stats.FormatRatioPrec(stats.Ratio(consB, consA), 1)))
	return r, nil
}
