package experiments

import (
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Collector gathers the span traces emitted by traced repetitions across an
// experiment sweep and folds each into paper-style time-breakdown rows: per
// role (producer/consumer), the per-process mean±std of movement, idle,
// compute, recovery and backpressure time, read from the class totals the
// run's recorder folded as it emitted (core.Result.SpanTotals).
//
// Pass one through Options.Trace to enable tracing: each experiment then
// records spans on one repetition per configuration (recording is
// observation-only, so measurements are unchanged) and the driver drains
// the breakdown rows into a report after each experiment. A collector made
// by NewCollector keeps every traced run for trace.WriteChrome; one made by
// NewStreamCollector writes the same document as the runs execute and
// keeps none, so its memory does not grow with the sweep.
type Collector struct {
	// Runs holds every traced run in collection order, ready for
	// trace.WriteChrome. It stays empty on a streaming collector.
	Runs []trace.Run

	stream *trace.ChromeStream // nil unless made by NewStreamCollector
	rows   [][]string
}

// NewCollector returns an empty collector that keeps its traced runs.
func NewCollector() *Collector { return &Collector{} }

// NewStreamCollector returns an empty collector that streams its traced
// runs into a Chrome trace-event document on w, span by span as they are
// emitted. The bytes equal trace.WriteChrome over the runs NewCollector
// would keep, except that a run killed mid-sweep (by an injected fault or
// a capacity kill) leaves its partial block, which a keeping collector
// drops. Close finishes the document.
func NewStreamCollector(w io.Writer) *Collector {
	return &Collector{stream: trace.NewChromeStream(w)}
}

// Close finishes a streaming collector's document and flushes it,
// reporting the first write error; it does nothing on a keeping one.
func (c *Collector) Close() error {
	if c.stream == nil {
		return nil
	}
	return c.stream.Close()
}

// breakdownCols is the column set of the drained breakdown report. total is
// movement+idle (the paper's production/consumption time); compute is the
// modeled application time between them; recovery overlaps the others and
// is zero on healthy runs, as is backpressure (producer stalls waiting for
// burst-buffer space) on runs without a finite capacity budget.
var breakdownCols = []string{"config", "role", "procs", "movement", "idle", "compute", "recovery", "backpressure", "total"}

// Add records every traced result in the batch: one producer and one
// consumer breakdown row each, and, on a keeping collector, one Chrome run.
// Untraced repetitions and runs killed by an injected fault are skipped.
func (c *Collector) Add(label string, results []*core.Result) {
	for _, res := range results {
		if res == nil || res.SpanTotals == nil {
			continue
		}
		if c.stream == nil {
			run := trace.Run{Label: label, Spans: res.Spans}
			// A repetition that was also metrics-sampled carries its
			// registry; its dashboard series become Perfetto counter tracks
			// under the run's span rows.
			run.Counters = metrics.CounterTracks(res.Metrics)
			// A repetition that also recorded the dependency graph carries
			// frame lineages; each becomes a Chrome flow chaining the
			// frame's provenance hops across proc tracks.
			if res.Crit != nil {
				run.Flows = critpath.FlowEvents(res.Crit.Frames)
			}
			c.Runs = append(c.Runs, run)
		}
		c.rows = append(c.rows, breakdownRows(label, res.SpanTotals)...)
	}
}

// breakdownRows renders one run's per-process class totals as its producer
// and consumer rows: per role, the mean±std across the role's processes of
// each process's total time in each class. A process is a member of its
// role from its first non-detail span and counts zero for a class it has
// no span of; ClassDetail spans nest inside workflow spans and would
// double-count, so the fold skips them.
func breakdownRows(label string, procs []trace.ProcTotals) [][]string {
	rows := make([][]string, 0, 2)
	for _, role := range []string{"producer", "consumer"} {
		var members []int
		for i := range procs {
			if strings.HasPrefix(procs[i].Proc, role) {
				members = append(members, i)
			}
		}
		class := func(c trace.Class) stats.Summary {
			xs := make([]float64, len(members))
			for j, i := range members {
				xs[j] = procs[i].Totals[c].Seconds()
			}
			return stats.Summarize(xs)
		}
		movement, idle := class(trace.ClassMovement), class(trace.ClassIdle)
		rows = append(rows, []string{
			label, role, strconv.Itoa(len(members)),
			fmtMS(movement), fmtMS(idle), fmtMS(class(trace.ClassCompute)),
			fmtMS(class(trace.ClassRecovery)), fmtMS(class(trace.ClassBackpressure)),
			stats.FormatSeconds(movement.Mean + idle.Mean),
		})
	}
	return rows
}

// Drain returns the breakdown rows accumulated since the last call as a
// report, or nil if no traced run contributed. The pending rows are
// cleared; the Chrome runs are kept.
func (c *Collector) Drain(id string) *Report {
	if c == nil || len(c.rows) == 0 {
		return nil
	}
	r := &Report{
		ID:      id + "-trace",
		Title:   "span-trace time breakdown (per process, movement vs idle, Fig. 4-7 methodology)",
		Columns: breakdownCols,
		Rows:    c.rows,
	}
	c.rows = nil
	return r
}
