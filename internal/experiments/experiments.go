// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV). Each experiment runs the corresponding workflow
// configurations through internal/core, repeats them, and renders the same
// rows/series the paper reports, together with the headline ratios so that
// paper-vs-measured comparisons are mechanical.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/stats"
)

// Options tune experiment execution.
type Options struct {
	// Reps is the number of repetitions per configuration (paper: 10).
	Reps int
	// Frames per producer-consumer pair (paper: 128).
	Frames int
	// Seed is the base RNG seed.
	Seed uint64
	// Quick shrinks the sweep (fewer frames, reps, and smaller maximum
	// ensembles) for benchmarks and smoke tests.
	Quick bool
	// Workers is the number of goroutines runs fan across (<= 0 means one
	// per available core). Results are identical for any worker count; only
	// wall-clock time changes.
	Workers int
	// ConsumerHeadStart gives every producer job this much head start over
	// its consumer (core.Config.ConsumerHeadStart, the -headstart flag).
	// The paper's protocol launches producers first; calibration fits this
	// delay. Zero — the default — is byte-identical to builds without the
	// knob.
	ConsumerHeadStart time.Duration
	// Trace, when non-nil, enables span tracing on one repetition of each
	// configuration and collects the traces for Chrome export (kept, or
	// streamed by a NewStreamCollector) plus per-experiment breakdown
	// reports. Recording is observation-only: every measured number is
	// byte-identical with or without it.
	Trace *Collector
	// Metrics, when non-nil, enables virtual-time metrics sampling on one
	// repetition of each configuration and collects the registries for CSV
	// and Prometheus export plus per-experiment utilization dashboards.
	// Sampling is observation-only, like tracing.
	Metrics *MetricsCollector
	// CritPath, when non-nil, records the causal dependency graph on one
	// repetition of each configuration and collects the extracted critical
	// paths for per-experiment blame reports plus frame-provenance waterfall
	// export. Recording is observation-only, like tracing. A repetition that
	// is both traced and recorded gets its frame lineages merged into the
	// Chrome trace as flow events.
	CritPath *CritCollector
}

// Defaults fills unset options with paper-faithful values.
func (o Options) Defaults() Options {
	if o.Reps == 0 {
		if o.Quick {
			o.Reps = 3
		} else {
			o.Reps = 10
		}
	}
	if o.Frames == 0 {
		if o.Quick {
			o.Frames = 32
		} else {
			o.Frames = 128
		}
	}
	if o.Seed == 0 {
		o.Seed = 0xD1AD
	}
	return o
}

// Report is a rendered experiment: a table plus headline comparisons.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carry the paper-vs-measured headline ratios and free-form
	// observations.
	Notes []string
	// Trees holds rendered Thicket call trees (fig9/fig10).
	Trees []string
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: targeted molecular models", Table1},
		{"table2", "Table II: stride for each molecular model", Table2},
		{"fig5", "Fig 5: single-node ensemble scaling, DYAD vs XFS (JAC)", fig5Spec.run},
		{"fig6", "Fig 6: two-node ensemble scaling, DYAD vs Lustre (JAC)", fig6Spec.run},
		{"fig7", "Fig 7: multi-node ensemble scaling to 256 pairs, DYAD vs Lustre (JAC)", fig7Spec.run},
		{"fig8", "Fig 8: molecular model size scaling, DYAD vs Lustre", Fig8},
		{"fig9", "Fig 9: Thicket call-tree analysis of DYAD (JAC vs STMV)", Fig9},
		{"fig10", "Fig 10: Thicket call-tree analysis of Lustre (JAC vs STMV)", Fig10},
		{"fig11", "Fig 11: frame generation frequency scaling, JAC", Fig11},
		{"fig12", "Fig 12: frame generation frequency scaling, STMV", Fig12},
		{"ablation", "Extension: per-mechanism DYAD ablation study", Ablation},
		{"straggler", "Extension: straggler fault injection", Straggler},
		// Extensions append here, never reorder: `all` output up to each
		// older build's last experiment must remain a byte-identical prefix
		// of newer builds' output.
		{"faultsweep", "Extension: fault injection and recovery sweep", FaultSweep},
		{"capsweep", "Extension: finite burst-buffer capacity sweep", CapSweep},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("unknown id %q (have %s)", id, strings.Join(ids, ", "))
}

// Render writes the report as an aligned text table.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			// Rows wider than Columns have no computed width; render the
			// extra cells at their natural width instead of panicking.
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			fmt.Fprintf(w, "%-*s", width+2, c)
		}
		fmt.Fprintln(w)
	}
	writeRow(r.Columns)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, tree := range r.Trees {
		fmt.Fprintln(w)
		fmt.Fprintln(w, tree)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// WriteCSV emits the report's table as CSV (one header row, then data).
// Notes and trees are omitted: CSV output is for plotting pipelines.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Columns); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// --- shared helpers ---

func mustModel(name string) models.Model {
	m, err := models.ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

// runAgg runs a config Reps times through Options.Run and aggregates.
func runAgg(cfg core.Config, o Options) (core.Aggregate, error) {
	results, err := o.Run([]Cell{{Cfg: cfg}})
	if err != nil {
		return core.Aggregate{}, err
	}
	return core.Aggregated(results[0]), nil
}

// fmtMS renders a seconds summary as mean±std.
func fmtMS(s stats.Summary) string {
	return fmt.Sprintf("%s±%s", stats.FormatSeconds(s.Mean), stats.FormatSeconds(s.Std))
}

func fmtDur(d time.Duration) string { return stats.FormatSeconds(d.Seconds()) }

// ratioNote formats a paper-vs-measured headline comparison. An undefined
// measured ratio (zero or fault-killed baseline) renders as "n/a".
func ratioNote(what string, paper float64, measured float64) string {
	return fmt.Sprintf("%s: paper %.1fx, measured %s", what, paper, stats.FormatRatioPrec(measured, 1))
}

// aggRow renders one aggregate as a standard row tail:
// prod movement, prod idle, cons movement, cons idle, cons total.
func aggRow(a core.Aggregate) []string {
	return []string{
		fmtMS(a.ProdMovement),
		fmtMS(a.ProdIdle),
		fmtMS(a.ConsMovement),
		fmtMS(a.ConsIdle),
		stats.FormatSeconds(a.ConsTotalMean()),
	}
}

var stdCols = []string{"prod_move", "prod_idle", "cons_move", "cons_idle", "cons_total"}
