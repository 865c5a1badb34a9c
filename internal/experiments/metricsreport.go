package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// MetricsCollector gathers the sampled metrics registries of metered
// repetitions across an experiment sweep. It keeps every sampled run
// verbatim for the CSV / Prometheus exporters and folds each run's
// dashboard-marked series into the end-of-run ASCII utilization dashboard:
// one row per resource with a sparkline of its activity over virtual time,
// mean/peak/p99 columns, and a regime-shift column driven by
// analytics.ChangeDetector — the virtual time at which the resource's
// utilization regime changed, i.e. when the paper's idle-time pathology
// begins.
//
// Pass one through Options.Metrics to enable sampling: each experiment
// meters one repetition per configuration (sampling is observation-only,
// so measurements are unchanged) and the driver drains the dashboard rows
// into a report after each experiment.
type MetricsCollector struct {
	// Interval is the virtual sampling period (0 = 250ms default).
	Interval time.Duration
	// Runs holds every sampled run in collection order, ready for
	// metrics.WriteCSV / metrics.WriteProm.
	Runs []metrics.Run

	scope string
	rows  [][]string
}

// NewMetricsCollector returns an empty collector with the default interval.
func NewMetricsCollector() *MetricsCollector { return &MetricsCollector{} }

// SampleInterval returns the virtual sampling period runs should use.
func (c *MetricsCollector) SampleInterval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return 250 * time.Millisecond
}

// SetScope prefixes subsequently added run labels with an experiment id.
// Different experiments can produce identical configuration labels (fig6
// and fig7 sweep overlapping ensembles), and the Prometheus snapshot keys
// series by run label — the scope keeps those label sets distinct.
// Nil-safe, like Drain, so drivers can call it unconditionally.
func (c *MetricsCollector) SetScope(id string) {
	if c != nil {
		c.scope = id
	}
}

// dashboardCols is the column set of the drained utilization dashboard.
// activity is a virtual-time sparkline (left = run start, right = run end);
// shift@ is the virtual time of the first detected utilization regime
// shift, or "-" when the series stays in one regime.
var dashboardCols = []string{"config", "resource", "activity", "mean", "peak", "p99", "shift@"}

// Add records every result in the batch that was metered: one exporter run
// each, plus one dashboard row per dashboard-marked series. Results without
// a registry (unmetered repetitions, runs killed by an injected fault) are
// skipped. A metered run that ended before its first sample boundary is
// exported as a header-only block and has no dashboard rows.
func (c *MetricsCollector) Add(label string, results []*core.Result) {
	if c.scope != "" {
		label = c.scope + " " + label
	}
	for _, res := range results {
		if res == nil || res.Metrics == nil {
			continue
		}
		c.Runs = append(c.Runs, metrics.Run{Label: label, Reg: res.Metrics})
		times := res.Metrics.Times()
		if len(times) == 0 {
			continue
		}
		for _, s := range res.Metrics.Series() {
			if s.Dash {
				c.rows = append(c.rows, dashboardRow(label, s, times))
			}
		}
	}
}

// dashboardRow renders one resource's sampled series as a dashboard row.
// Mean, peak and p99 are over the defined samples (NaNs skipped, as
// stats.Summarize does), from one sorted copy; the mean is summed in
// sample order.
func dashboardRow(label string, s *metrics.Series, times []time.Duration) []string {
	sorted := make([]float64, 0, len(s.Samples))
	var mean float64
	for _, v := range s.Samples {
		if !math.IsNaN(v) {
			sorted = append(sorted, v)
			mean += v
		}
	}
	var peak float64
	if n := len(sorted); n > 0 {
		mean /= float64(n)
		sort.Float64s(sorted)
		peak = sorted[n-1]
	}
	p99 := stats.Percentile(sorted, 99)

	// Regime-shift detection over the sampled series: the first sample
	// whose value departs the running distribution by more than 3 standard
	// deviations (or any departure from a zero-variance history) marks the
	// virtual time the resource's utilization regime changed.
	shift := "-"
	det := analytics.ChangeDetector{Threshold: 3, MinSample: 8}
	for i, v := range s.Samples {
		if det.Observe(v) {
			shift = stats.FormatSeconds(times[i].Seconds())
			break
		}
	}

	return []string{
		label, s.Name, metrics.Sparkline(s.Samples, 24),
		fmtG(mean), fmtG(peak), fmtG(p99), shift,
	}
}

// fmtG renders a dashboard value compactly with fixed precision.
func fmtG(v float64) string { return fmt.Sprintf("%.3g", v) }

// MetricsStream is the bounded-memory counterpart of MetricsCollector:
// instead of retaining every sampled registry for end-of-sweep export, it
// writes each metered repetition's CSV block into Sink as the sweep
// collects the run, then drops the registry from the run's Result.
// Options.Run gives a streamed sweep one batch per cell, so at most one
// cell's metered run holds samples at a time. The bytes written are
// identical to buffered collection followed by metrics.WriteCSV over the
// same runs; what is lost is everything that needs the retained registries
// after the sweep (the utilization dashboard, the Prometheus snapshot).
//
// Pass one through Options.MetricsStream (mutually exclusive with
// Options.Metrics); the driver sets the experiment scope before each
// experiment so run labels match buffered collection.
type MetricsStream struct {
	// Sink receives one CSV block per metered run.
	Sink *metrics.CSVSink
	// Interval is the virtual sampling period (0 = 250ms default).
	Interval time.Duration

	scope string
}

// SampleInterval returns the virtual sampling period runs should use.
func (c *MetricsStream) SampleInterval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return 250 * time.Millisecond
}

// SetScope prefixes subsequently added run labels with an experiment id,
// mirroring MetricsCollector.SetScope. Nil-safe.
func (c *MetricsStream) SetScope(id string) {
	if c != nil {
		c.scope = id
	}
}

// Add writes the CSV block of every metered result in the batch, in
// order, and drops the registry from its Result. Results without a
// registry (unmetered repetitions, killed runs) are skipped, as
// MetricsCollector.Add skips them.
func (c *MetricsStream) Add(label string, results []*core.Result) {
	if c.scope != "" {
		label = c.scope + " " + label
	}
	for _, res := range results {
		if res == nil || res.Metrics == nil {
			continue
		}
		c.Sink.WriteRun(metrics.Run{Label: label, Reg: res.Metrics})
		res.Metrics = nil
	}
}

// Drain returns the dashboard rows accumulated since the last call as a
// report, or nil if no sampled run contributed. The pending rows are
// cleared; the exporter runs are kept.
func (c *MetricsCollector) Drain(id string) *Report {
	if c == nil || len(c.rows) == 0 {
		return nil
	}
	r := &Report{
		ID:      id + "-metrics",
		Title:   "sampled resource utilization (virtual-time dashboard, regime shifts via change detection)",
		Columns: dashboardCols,
		Rows:    c.rows,
	}
	c.rows = nil
	return r
}
