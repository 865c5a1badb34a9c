// Package metrics is the deterministic virtual-time metrics pipeline of
// the simulation substrate: a registry of sampled resource series
// (counters, gauges, rates, utilizations, ratios) plus log-bucket latency
// histograms, driven by the sim engine's fixed-interval virtual-clock
// sampler. No wall clock is ever read — every sample is stamped from the
// virtual timeline, and probes only read component state — so a run's
// sampled series are a pure function of (config, seed): byte-identical
// across worker counts and across hosts.
//
// Like span tracing (package trace), metrics are a zero-cost abstraction
// when disabled: every registration and observation method is nil-safe on
// a nil *Registry / nil *Histogram, instrumented components keep plain
// counter fields that cost one add whether or not a registry is attached,
// and no sampler means the engine pays one nil check per event. The
// sampling determinism contract is documented in DESIGN.md §3f.
//
// Three consumers sit on top: WriteCSV (per-interval time series),
// WriteProm (end-of-run Prometheus text-format snapshot), and
// CounterTracks (Chrome trace counter rows for Perfetto). The experiments
// layer adds a fourth, the ASCII utilization dashboard, via Sparkline and
// the per-series sample vectors.
package metrics

import (
	"bufio"
	"io"
	"strconv"
	"time"

	"repro/internal/trace"
)

// Kind is the sampling semantic of a registered series.
type Kind uint8

const (
	// KindGauge samples an instantaneous value at each boundary (queue
	// depth, in-flight requests, journal backlog).
	KindGauge Kind = iota
	// KindCounter samples a cumulative total at each boundary (timeouts,
	// retries — the faults.Metrics mirror).
	KindCounter
	// KindRate samples the per-second increase of a cumulative total over
	// the elapsed interval (bytes read -> read bandwidth).
	KindRate
	// KindUtil samples the busy fraction of a capacity over the interval:
	// delta(busy-unit-nanos) / (capacity * interval).
	KindUtil
	// KindRatio samples delta(numerator)/delta(denominator) over the
	// interval (cache hits over cache accesses), 0 when the denominator
	// did not move.
	KindRatio
)

// String returns the kind name used in the CSV header comment and docs.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindRate:
		return "rate"
	case KindUtil:
		return "util"
	case KindRatio:
		return "ratio"
	default:
		return "gauge"
	}
}

// Series is one registered metric: a name, a sampling kind, and the value
// sampled at every interval boundary. Registration order is the stable
// column order of the CSV export and the row order of the dashboard.
type Series struct {
	Name string
	Kind Kind
	// Dash marks the series for the condensed consumers: the per-backend
	// ASCII dashboard and the Chrome counter tracks. Per-device series
	// stay CSV-only so large ensembles do not flood the dashboard.
	Dash bool
	// Samples holds one value per elapsed interval, in boundary order.
	// While the run samples, it is the series' column of the registry's
	// SampleBlock; after DropProbes it is the series' own part of one
	// exact-size array, its capacity equal to its length.
	Samples []float64

	probe   func() float64
	den     func() float64 // KindRatio denominator probe
	unitCap float64        // KindUtil: capacity units
	prev    float64        // last cumulative probe value (rate/util/ratio/counter)
	prevDen float64
	totNum  float64 // KindRatio: cumulative numerator/denominator deltas
	totDen  float64
}

// OnDashboard marks the series for the dashboard and Chrome counter
// consumers and returns it. Nil-safe (no-op on a nil series).
func (s *Series) OnDashboard() *Series {
	if s != nil {
		s.Dash = true
	}
	return s
}

// Histogram is a log-bucket duration histogram on trace's
// power-of-four-microseconds bucketing (trace.HistBucket). A nil
// *Histogram is valid and inert: Observe
// on it is one nil check, which is what instrumented components pay when
// no registry is attached.
type Histogram struct {
	Name  string
	Count int64
	Sum   time.Duration
	Min   time.Duration
	Max   time.Duration
	// Buckets follows trace.HistBuckets: bucket i counts durations d with
	// 4^(i-1)µs <= d < 4^i µs (bucket 0 is d < 1µs, the last unbounded).
	Buckets [trace.HistBuckets]int64
}

// Observe records one duration. No-op on a nil histogram.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if h.Count == 0 || d < h.Min {
		h.Min = d
	}
	if d > h.Max {
		h.Max = d
	}
	h.Count++
	h.Sum += d
	h.Buckets[trace.HistBucket(d)]++
}

// Registry holds one run's registered series and histograms. Components
// register probes once at wiring time; the engine sampler calls Sample at
// every interval boundary the event timeline reaches, which records into
// the registry's SampleBlock. DropProbes, at the end of the run, copies
// the samples out of the block into arrays of their exact size, which the
// registry keeps. A nil *Registry is valid and inert: every method is
// nil-safe, so wiring code registers unconditionally and pays nothing when
// metrics are off.
type Registry struct {
	interval time.Duration
	times    []time.Duration
	series   []*Series
	hists    []*Histogram
	block    *SampleBlock // nil once DropProbes copied the samples out
}

// SampleBlock is the scratch a registry samples into: the boundary times,
// and one column per series, laid out one after another (column-major), so
// each series' Samples is a slice of it. A block that runs out of room is
// laid out again, twice as tall, in a new array that it keeps. The zero
// SampleBlock is empty; a block handed from one run to the next keeps its
// arrays, so a run no larger than one it served before grows nothing.
type SampleBlock struct {
	times []time.Duration
	vals  []float64
}

// New creates a registry sampling at the given fixed virtual interval into
// block b, which it uses until DropProbes and overwrites from the start, or
// into a block of its own when b is nil.
func New(interval time.Duration, b *SampleBlock) *Registry {
	if interval <= 0 {
		panic("metrics: nonpositive sample interval")
	}
	if b == nil {
		b = new(SampleBlock)
	}
	b.times = b.times[:0]
	return &Registry{interval: interval, block: b}
}

// add registers s.
func (r *Registry) add(s Series) *Series {
	r.series = append(r.series, &s)
	return &s
}

// Gauge registers an instantaneous-value series.
func (r *Registry) Gauge(name string, probe func() float64) *Series {
	if r == nil {
		return nil
	}
	return r.add(Series{Name: name, Kind: KindGauge, probe: probe})
}

// Counter registers a cumulative-total series.
func (r *Registry) Counter(name string, probe func() float64) *Series {
	if r == nil {
		return nil
	}
	return r.add(Series{Name: name, Kind: KindCounter, probe: probe})
}

// Rate registers a series sampling the per-second increase of the
// cumulative total returned by probe.
func (r *Registry) Rate(name string, probe func() float64) *Series {
	if r == nil {
		return nil
	}
	return r.add(Series{Name: name, Kind: KindRate, probe: probe})
}

// Util registers a utilization series over a capacity: probe returns the
// cumulative busy integral in unit-nanoseconds (sim.Resource.BusyUnitNanos
// or an equivalent accumulator) and each sample is the busy fraction of
// capacity*interval.
func (r *Registry) Util(name string, capacity int, probe func() float64) *Series {
	if r == nil {
		return nil
	}
	if capacity < 1 {
		capacity = 1
	}
	return r.add(Series{Name: name, Kind: KindUtil, probe: probe, unitCap: float64(capacity)})
}

// Ratio registers a windowed ratio series: delta(num)/delta(den) per
// interval, 0 when the denominator did not move.
func (r *Registry) Ratio(name string, num, den func() float64) *Series {
	if r == nil {
		return nil
	}
	return r.add(Series{Name: name, Kind: KindRatio, probe: num, den: den})
}

// Histogram registers a named duration histogram and returns its handle
// for instrumented components to Observe into (nil, and therefore inert,
// on a nil registry).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{Name: name}
	r.hists = append(r.hists, h)
	return h
}

// Sample records one value per registered series at virtual time t. The
// engine sampler calls it at every interval boundary; probes must only
// read state (no event scheduling, no RNG draws), which keeps sampling
// observation-only. Every boundary writes one value into each series'
// column of the block, and lays the columns out again first when one is
// full.
func (r *Registry) Sample(t time.Duration) {
	if r == nil {
		return
	}
	sec := r.interval.Seconds()
	b := r.block
	b.times = append(b.times, t)
	r.times = b.times
	for _, s := range r.series {
		if len(s.Samples) == cap(s.Samples) {
			r.layout()
		}
		s.Samples = append(s.Samples, s.sample(r.interval, sec))
	}
}

// layout gives every series a column of the block with room for one more
// sample than the longest holds, keeping the samples taken. A block that
// holds no sample yet is laid out in place, with the tallest columns its
// array fits; a block too short for that gets a new array twice as tall.
// Each series' Samples is capped at its column's end, so appending to it
// stays in its column.
func (r *Registry) layout() {
	b, cols := r.block, len(r.series)
	rows, taken := 1, 0
	for _, s := range r.series {
		rows = max(rows, len(s.Samples)+1)
		taken += len(s.Samples)
	}
	stride := cap(b.vals) / cols
	vals := b.vals[:cap(b.vals)]
	if taken > 0 || stride < rows {
		stride = max(2*stride, rows, 16)
		vals = make([]float64, cols*stride)
	}
	for i, s := range r.series {
		col := vals[i*stride : i*stride+len(s.Samples) : (i+1)*stride]
		copy(col, s.Samples)
		s.Samples = col
	}
	b.vals = vals
}

// sample computes the series' value at one boundary and advances its
// cursors.
func (s *Series) sample(interval time.Duration, sec float64) float64 {
	var v float64
	switch s.Kind {
	case KindGauge:
		v = s.probe()
	case KindCounter:
		cur := s.probe()
		s.prev = cur
		v = cur
	case KindRate:
		cur := s.probe()
		v = (cur - s.prev) / sec
		s.prev = cur
	case KindUtil:
		cur := s.probe()
		v = (cur - s.prev) / (s.unitCap * float64(interval))
		s.prev = cur
	case KindRatio:
		n, d := s.probe(), s.den()
		dn, dd := n-s.prev, d-s.prevDen
		s.prev, s.prevDen = n, d
		s.totNum += dn
		s.totDen += dd
		if dd != 0 {
			v = dn / dd
		}
	}
	return v
}

// DropProbes releases every series' probes, so a registry kept after its
// run no longer holds the run's components (the probes close over them),
// and copies the times and samples out of the block into arrays of their
// exact size: one for the times, and one for every series' samples, each
// series' Samples its own part, with its capacity equal to its length.
// The registry no longer uses the block, which can serve another. The
// samples, histograms and snapshot state stay, so every exporter writes
// what it wrote before; the registry must not be sampled again. Nil-safe.
func (r *Registry) DropProbes() {
	if r == nil {
		return
	}
	for _, s := range r.series {
		s.probe, s.den = nil, nil
	}
	if r.block == nil {
		return
	}
	r.block = nil
	times := r.times
	r.times = nil
	if len(times) > 0 {
		r.times = make([]time.Duration, len(times))
		copy(r.times, times)
	}
	total := 0
	for _, s := range r.series {
		total += len(s.Samples)
	}
	vals := make([]float64, total)
	for _, s := range r.series {
		n := copy(vals, s.Samples)
		s.Samples = nil
		if n > 0 {
			s.Samples = vals[:n:n]
		}
		vals = vals[n:]
	}
}

// Len returns the number of samples taken (0 on a nil registry).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.times)
}

// Times returns the virtual time of every sample, in order. Owned by the
// registry.
func (r *Registry) Times() []time.Duration {
	if r == nil {
		return nil
	}
	return r.times
}

// Series returns the registered series in registration order — the stable
// column order of every exporter. Owned by the registry.
func (r *Registry) Series() []*Series {
	if r == nil {
		return nil
	}
	return r.series
}

// Histograms returns the registered histograms in registration order.
func (r *Registry) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	return r.hists
}

// Run pairs a label with one sampled run's registry, for the file-level
// exporters (several runs share one CSV / Prometheus document).
type Run struct {
	Label string
	Reg   *Registry
}

// appendFloat appends a float64 with strconv's shortest round-trip
// formatting — fixed, locale-free, and deterministic, the property the -j1
// vs -j8 byte-identity check relies on.
func appendFloat(dst []byte, v float64) []byte { return strconv.AppendFloat(dst, v, 'g', -1, 64) }

// WriteCSV writes the sampled time series of every run: per run, a "# label"
// comment line, a header (time_s then series names in registration order),
// and one row per elapsed sample interval. Runs are separated by one blank
// line. Column order and number formatting are fixed, so deterministic
// samples serialize to deterministic bytes. It is a loop of CSVSink.WriteRun,
// so a sweep that writes each run's block as it completes writes the same
// bytes.
func WriteCSV(w io.Writer, runs []Run) error {
	k := NewCSVSink(w)
	for _, run := range runs {
		k.WriteRun(run)
	}
	return k.Flush()
}

// CSVSink is the CSV encoder behind WriteCSV: each WriteRun appends one
// run's block to a buffered writer, so a caller can write runs one at a
// time and drop each registry once its block is written. Lines are
// append-encoded into one reused buffer, so writing a row allocates
// nothing.
type CSVSink struct {
	bw   *bufio.Writer
	line []byte // the line being encoded, reused across lines
	runs int
}

// NewCSVSink returns a sink writing CSV blocks to w.
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{bw: bufio.NewWriter(w), line: make([]byte, 0, 256)}
}

// WriteRun writes one run's block: the separator (a blank line after the
// first run), the "# label" comment, the header row and one row per sample
// boundary, with the time in seconds and then one value per series in
// registration order.
func (k *CSVSink) WriteRun(run Run) {
	series := run.Reg.Series()
	b := k.line[:0]
	if k.runs > 0 {
		b = append(b, '\n')
	}
	k.runs++
	b = append(b, "# "...)
	b = appendCSVComment(b, run.Label)
	b = append(b, "\ntime_s"...)
	for _, s := range series {
		b = append(b, ',')
		b = append(b, s.Name...)
	}
	k.write(append(b, '\n'))
	for i, t := range run.Reg.Times() {
		b := appendFloat(k.line[:0], t.Seconds())
		for _, s := range series {
			b = append(b, ',')
			b = appendFloat(b, s.Samples[i])
		}
		k.write(append(b, '\n'))
	}
}

// write copies an encoded line into the I/O buffer and keeps the line
// buffer's grown capacity for the next one.
func (k *CSVSink) write(b []byte) {
	k.bw.Write(b)
	k.line = b
}

// Flush forces buffered rows to the underlying writer. Call it before
// closing the file the sink writes into.
func (k *CSVSink) Flush() error { return k.bw.Flush() }

// promType is the series' Prometheus type: counters and rates export a
// cumulative total, every other kind a gauge.
func (s *Series) promType() string {
	if s.Kind == KindCounter || s.Kind == KindRate {
		return "counter"
	}
	return "gauge"
}

// snapshot reduces a series' sampled window to one end-of-run value.
// Counters and rates export the cumulative total at the last boundary;
// gauges the last sample; utilizations the mean busy fraction; ratios the
// delta-weighted whole-run ratio. Pure: it reads the samples and the
// sampling cursors and never calls probes, so exporting is safe at any
// point after the run and idempotent.
func (s *Series) snapshot() float64 {
	n := len(s.Samples)
	switch s.Kind {
	case KindCounter, KindRate:
		return s.prev
	case KindUtil:
		var sum float64
		for _, v := range s.Samples {
			sum += v
		}
		if n > 0 {
			sum /= float64(n)
		}
		return sum
	case KindRatio:
		if s.totDen == 0 {
			return 0
		}
		return s.totNum / s.totDen
	default:
		if n == 0 {
			return 0
		}
		return s.Samples[n-1]
	}
}

// appendPromName appends a series name sanitized into a Prometheus metric
// name: the repro_ prefix, then every rune outside [A-Za-z0-9] as '_'.
func appendPromName(dst []byte, name string) []byte {
	dst = append(dst, "repro_"...)
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			dst = append(dst, byte(r))
		default:
			dst = append(dst, '_')
		}
	}
	return dst
}

// appendPromLabel appends a label value escaped per the Prometheus text
// exposition format: backslash, quote and newline get a backslash escape.
func appendPromLabel(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\', '"':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// appendCSVComment appends a run label escaped for the single-line
// "# label" comment of the CSV export: backslashes double and embedded line
// breaks become visible \n / \r escapes, so a hostile label cannot inject
// rows into the data block.
func appendCSVComment(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// appendHistUpper appends bucket b's inclusive upper bound in seconds, the
// Prometheus le label ("+Inf" for the unbounded last bucket).
func appendHistUpper(dst []byte, b int) []byte {
	if b >= trace.HistBuckets-1 {
		return append(dst, "+Inf"...)
	}
	us := int64(1) << (2 * uint(b)) // 4^b microseconds
	return appendFloat(dst, float64(us)*1e-6)
}

// appendSample appends one sample line's metric name, run label and space:
// metric{run="label"} — or metric{run="label",le="upper"} for a histogram
// bucket (le < 0 for none) — ready for the value.
func appendSample(dst, metric []byte, suffix, run string, le int) []byte {
	dst = append(dst, metric...)
	dst = append(dst, suffix...)
	dst = append(dst, `{run="`...)
	dst = appendPromLabel(dst, run)
	if le >= 0 {
		dst = append(dst, `",le="`...)
		dst = appendHistUpper(dst, le)
	}
	return append(dst, `"} `...)
}

// WriteProm writes an end-of-run snapshot of every run in the Prometheus
// text exposition format. Scalar series become one sample per run, keyed
// by a run label; counters get the conventional _total suffix. Histograms
// export cumulative le buckets in seconds plus _sum and _count. Samples of
// one metric are grouped under a single # TYPE line across runs, in first-
// appearance order, and all formatting is fixed — deterministic samples
// serialize to deterministic bytes.
func WriteProm(w io.Writer, runs []Run) error {
	bw := bufio.NewWriter(w)

	type entry struct {
		run string
		s   *Series
	}
	var order []string
	byName := make(map[string][]entry)
	for _, run := range runs {
		for _, s := range run.Reg.Series() {
			if _, ok := byName[s.Name]; !ok {
				order = append(order, s.Name)
			}
			byName[s.Name] = append(byName[s.Name], entry{run.Label, s})
		}
	}
	// Lines are append-encoded into one reused buffer and written once per
	// run's block (a TYPE line rides with the first block), so the buffer
	// stays bounded by one block, not by the run count.
	line := make([]byte, 0, 256)
	var metric []byte
	for _, name := range order {
		entries := byName[name]
		promType := entries[0].s.promType()
		metric = appendPromName(metric[:0], name)
		if promType == "counter" {
			metric = append(metric, "_total"...)
		}
		line = append(line[:0], "# TYPE "...)
		line = append(line, metric...)
		line = append(line, ' ')
		line = append(line, promType...)
		line = append(line, '\n')
		for _, e := range entries {
			line = appendSample(line, metric, "", e.run, -1)
			line = append(appendFloat(line, e.s.snapshot()), '\n')
			bw.Write(line)
			line = line[:0]
		}
	}

	type hentry struct {
		run string
		h   *Histogram
	}
	var horder []string
	hByName := make(map[string][]hentry)
	for _, run := range runs {
		for _, h := range run.Reg.Histograms() {
			if _, ok := hByName[h.Name]; !ok {
				horder = append(horder, h.Name)
			}
			hByName[h.Name] = append(hByName[h.Name], hentry{run.Label, h})
		}
	}
	for _, name := range horder {
		metric = append(appendPromName(metric[:0], name), "_seconds"...)
		line = append(line[:0], "# TYPE "...)
		line = append(line, metric...)
		line = append(line, " histogram\n"...)
		for _, e := range hByName[name] {
			var cum int64
			for b := 0; b < trace.HistBuckets; b++ {
				cum += e.h.Buckets[b]
				line = appendSample(line, metric, "_bucket", e.run, b)
				line = append(strconv.AppendInt(line, cum, 10), '\n')
			}
			line = appendSample(line, metric, "_sum", e.run, -1)
			line = append(appendFloat(line, e.h.Sum.Seconds()), '\n')
			line = appendSample(line, metric, "_count", e.run, -1)
			line = append(strconv.AppendInt(line, e.h.Count, 10), '\n')
			bw.Write(line)
			line = line[:0]
		}
	}
	return bw.Flush()
}

// CounterTracks converts the registry's dashboard-marked series into
// Chrome trace counter tracks, so a traced+sampled run shows utilization
// curves under its span rows in Perfetto.
func CounterTracks(r *Registry) []trace.Counter {
	if r == nil {
		return nil
	}
	var out []trace.Counter
	for _, s := range r.Series() {
		if !s.Dash {
			continue
		}
		out = append(out, trace.Counter{Name: s.Name, Times: r.Times(), Values: s.Samples})
	}
	return out
}

// sparkLevels are the 9 activity glyphs of Sparkline, dimmest to densest.
var sparkLevels = []byte(" .:-=+*#@")

// Sparkline renders a sample vector as a fixed-width ASCII activity strip:
// samples are bucketed to width cells (mean per cell) and scaled from the
// series floor (min(0, min)) to its peak. A flat series renders as all
// floor glyphs; an empty one as an empty string.
func Sparkline(samples []float64, width int) string {
	if width <= 0 || len(samples) == 0 {
		return ""
	}
	if len(samples) < width {
		width = len(samples)
	}
	lo, hi := samples[0], samples[0]
	for _, v := range samples[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo > 0 {
		lo = 0 // nonnegative series scale from zero, not their min
	}
	out := make([]byte, width)
	for i := 0; i < width; i++ {
		a, b := i*len(samples)/width, (i+1)*len(samples)/width
		if b <= a {
			b = a + 1
		}
		var mean float64
		for _, v := range samples[a:b] {
			mean += v
		}
		mean /= float64(b - a)
		level := 0
		if hi > lo {
			level = int((mean - lo) / (hi - lo) * float64(len(sparkLevels)-1))
		}
		if level < 0 {
			level = 0
		}
		if level > len(sparkLevels)-1 {
			level = len(sparkLevels) - 1
		}
		out[i] = sparkLevels[level]
	}
	return string(out)
}
