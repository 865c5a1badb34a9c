package experiments

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Collector gathers the span traces emitted by traced repetitions across an
// experiment sweep. It keeps every traced run verbatim for Chrome trace
// export and folds each into paper-style time-breakdown rows: per role
// (producer/consumer), the per-process mean±std of movement, idle, compute,
// recovery and backpressure time, folded from the span stream.
//
// Pass one through Options.Trace to enable tracing: each experiment then
// records spans on one repetition per configuration (recording is
// observation-only, so measurements are unchanged) and the driver drains
// the breakdown rows into a report after each experiment.
type Collector struct {
	// Runs holds every traced run in collection order, ready for
	// trace.WriteChrome.
	Runs []trace.Run

	rows [][]string
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// breakdownCols is the column set of the drained breakdown report. total is
// movement+idle (the paper's production/consumption time); compute is the
// modeled application time between them; recovery overlaps the others and
// is zero on healthy runs, as is backpressure (producer stalls waiting for
// burst-buffer space) on runs without a finite capacity budget.
var breakdownCols = []string{"config", "role", "procs", "movement", "idle", "compute", "recovery", "backpressure", "total"}

// Add records every result in the batch that carries spans: one Chrome run
// each, plus one producer and one consumer breakdown row. Results without
// spans (untraced repetitions, runs killed by an injected fault) are
// skipped.
func (c *Collector) Add(label string, results []*core.Result) {
	for _, res := range results {
		if res == nil || len(res.Spans) == 0 {
			continue
		}
		run := trace.Run{Label: label, Spans: res.Spans}
		// A repetition that was also metrics-sampled carries its registry;
		// its dashboard series become Perfetto counter tracks under the
		// run's span rows.
		run.Counters = metrics.CounterTracks(res.Metrics)
		// A repetition that also recorded the dependency graph carries frame
		// lineages; each becomes a Chrome flow chaining the frame's
		// provenance hops across proc tracks.
		if res.Crit != nil {
			run.Flows = critpath.FlowEvents(res.Crit.Frames)
		}
		c.Runs = append(c.Runs, run)
		c.rows = append(c.rows, breakdownRows(label, res.Spans)...)
	}
}

// breakdownRows folds one run's spans into its producer and consumer rows:
// per role, the mean±std across the role's processes of each process's
// total time in each class. A process is a member of its role from its
// first span of any class and counts zero for a class it has no span of.
// ClassDetail spans nest inside workflow spans and would double-count, so
// they are skipped.
func breakdownRows(label string, spans []trace.Span) [][]string {
	type proc struct {
		name   string
		totals [trace.ClassBackpressure + 1]time.Duration
	}
	var procs []proc // in first-emission order
	idx := map[string]int{}
	for _, s := range spans {
		if s.Class == trace.ClassDetail {
			continue
		}
		i, ok := idx[s.Proc]
		if !ok {
			i = len(procs)
			idx[s.Proc] = i
			procs = append(procs, proc{name: s.Proc})
		}
		procs[i].totals[s.Class] += s.Dur
	}
	rows := make([][]string, 0, 2)
	for _, role := range []string{"producer", "consumer"} {
		var members []int
		for i := range procs {
			if strings.HasPrefix(procs[i].name, role) {
				members = append(members, i)
			}
		}
		class := func(c trace.Class) stats.Summary {
			xs := make([]float64, len(members))
			for j, i := range members {
				xs[j] = procs[i].totals[c].Seconds()
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
