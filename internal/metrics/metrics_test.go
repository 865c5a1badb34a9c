package metrics

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	g := r.Gauge("g", func() float64 { return 1 })
	c := r.Counter("c", func() float64 { return 1 })
	ra := r.Rate("ra", func() float64 { return 1 })
	u := r.Util("u", 4, func() float64 { return 1 })
	rt := r.Ratio("rt", func() float64 { return 1 }, func() float64 { return 2 })
	h := r.Histogram("h")
	for _, s := range []*Series{g, c, ra, u, rt} {
		if s != nil {
			t.Fatalf("nil registry returned non-nil series %v", s)
		}
	}
	if h != nil {
		t.Fatal("nil registry returned non-nil histogram")
	}
	// All of these must be no-ops, not panics.
	g.OnDashboard()
	h.Observe(time.Millisecond)
	r.Sample(time.Second)
	if r.Len() != 0 || r.Times() != nil || r.Series() != nil || r.Histograms() != nil {
		t.Fatal("nil registry accessors not inert")
	}
	if got := CounterTracks(r); got != nil {
		t.Fatalf("CounterTracks(nil) = %v, want nil", got)
	}
}

func TestNewRejectsNonpositiveInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, nil)
}

// TestSampleKinds drives one series of each kind through three boundaries
// with a hand-built cumulative state and checks each sample against the
// kind's documented semantic.
func TestSampleKinds(t *testing.T) {
	r := New(time.Second, nil)
	var total, busy, hits, accesses, inFlight float64
	r.Gauge("gauge", func() float64 { return inFlight })
	r.Counter("counter", func() float64 { return total })
	r.Rate("rate", func() float64 { return total })
	r.Util("util", 2, func() float64 { return busy })
	r.Ratio("ratio", func() float64 { return hits }, func() float64 { return accesses })

	step := func(dTotal, dBusy, dHits, dAccesses, gaugeNow float64, at time.Duration) {
		total += dTotal
		busy += dBusy
		hits += dHits
		accesses += dAccesses
		inFlight = gaugeNow
		r.Sample(at)
	}
	// Interval 1: 10 ops, busy 0.5 unit-second of 2 capacity-units, 3/4 hits.
	step(10, 0.5e9, 3, 4, 7, time.Second)
	// Interval 2: nothing moves.
	step(0, 0, 0, 0, 2, 2*time.Second)
	// Interval 3: 5 ops, fully busy, 1/1 hits.
	step(5, 2e9, 1, 1, 0, 3*time.Second)

	want := map[string][]float64{
		"gauge":   {7, 2, 0},
		"counter": {10, 10, 15},
		"rate":    {10, 0, 5},
		"util":    {0.25, 0, 1},
		"ratio":   {0.75, 0, 1}, // denominator stalled in interval 2 -> 0
	}
	for _, s := range r.Series() {
		w := want[s.Name]
		if len(s.Samples) != len(w) {
			t.Fatalf("%s: %d samples, want %d", s.Name, len(s.Samples), len(w))
		}
		for i, v := range s.Samples {
			if v != w[i] {
				t.Errorf("%s sample %d = %v, want %v", s.Name, i, v, w[i])
			}
		}
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
}

func TestHistogramObserve(t *testing.T) {
	h := New(time.Second, nil).Histogram("lat")
	durs := []time.Duration{500 * time.Nanosecond, 3 * time.Microsecond, 3 * time.Microsecond, 100 * time.Millisecond}
	var sum time.Duration
	for _, d := range durs {
		h.Observe(d)
		sum += d
	}
	if h.Count != 4 || h.Sum != sum {
		t.Fatalf("count=%d sum=%v, want 4/%v", h.Count, h.Sum, sum)
	}
	if h.Min != 500*time.Nanosecond || h.Max != 100*time.Millisecond {
		t.Fatalf("min=%v max=%v", h.Min, h.Max)
	}
	if h.Buckets[0] != 1 || h.Buckets[trace.HistBucket(3*time.Microsecond)] != 2 {
		t.Fatalf("bucket counts wrong: %v", h.Buckets)
	}
}

func TestWriteCSVDeterministicShape(t *testing.T) {
	mk := func() Run {
		r := New(time.Second, nil)
		var n float64
		r.Counter("a/total", func() float64 { return n })
		r.Gauge("b/now", func() float64 { return n / 2 })
		n = 4
		r.Sample(time.Second)
		n = 6
		r.Sample(2 * time.Second)
		return Run{Label: "run one", Reg: r}
	}
	var b1, b2 strings.Builder
	if err := WriteCSV(&b1, []Run{mk(), mk()}); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b2, []Run{mk(), mk()}); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("WriteCSV not deterministic")
	}
	want := "# run one\ntime_s,a/total,b/now\n1,4,2\n2,6,3\n\n# run one\ntime_s,a/total,b/now\n1,4,2\n2,6,3\n"
	if b1.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", b1.String(), want)
	}
}

func TestWritePromSnapshot(t *testing.T) {
	r := New(time.Second, nil)
	var n, busy float64
	r.Counter("ops", func() float64 { return n })
	r.Util("dev/util", 1, func() float64 { return busy })
	h := r.Histogram("op/lat")
	n, busy = 8, 0.5e9
	h.Observe(2 * time.Microsecond)
	r.Sample(time.Second)
	n, busy = 8, 0.5e9
	r.Sample(2 * time.Second)

	var b strings.Builder
	if err := WriteProm(&b, []Run{{Label: `q"x`, Reg: r}}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE repro_ops_total counter\n",
		"repro_ops_total{run=\"q\\\"x\"} 8\n",
		"# TYPE repro_dev_util gauge\n",
		"repro_dev_util{run=\"q\\\"x\"} 0.25\n", // mean of 0.5 and 0
		"# TYPE repro_op_lat_seconds histogram\n",
		`le="+Inf"} 1`,
		"repro_op_lat_seconds_count{run=\"q\\\"x\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	// Snapshot purity: exporting twice must give identical bytes (no probe
	// calls, no state mutation at export time).
	var b2 strings.Builder
	if err := WriteProm(&b2, []Run{{Label: `q"x`, Reg: r}}); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Fatal("WriteProm is not idempotent")
	}
}

// TestExportersEscapeHostileLabel is the full golden for a label carrying
// every character the exporters must neutralize: backslashes (including a
// trailing one), double quotes, and line breaks. Prometheus output follows
// the text exposition format escaping (\\ then \" then \n, in that order);
// the CSV "# label" comment keeps the label on one line so a hostile label
// cannot inject data rows.
func TestExportersEscapeHostileLabel(t *testing.T) {
	hostile := "bad\"run\\name\nwith=\"x\\n\"\r tail\\"
	r := New(time.Second, nil)
	n := 0.0
	r.Counter("ops", func() float64 { return n })
	n = 3
	r.Sample(time.Second)
	runs := []Run{{Label: hostile, Reg: r}}

	var prom strings.Builder
	if err := WriteProm(&prom, runs); err != nil {
		t.Fatal(err)
	}
	wantProm := "# TYPE repro_ops_total counter\n" +
		"repro_ops_total{run=\"bad\\\"run\\\\name\\nwith=\\\"x\\\\n\\\"\r tail\\\\\"} 3\n"
	if prom.String() != wantProm {
		t.Fatalf("prom golden mismatch:\ngot:  %q\nwant: %q", prom.String(), wantProm)
	}
	// The value line must parse as exactly one sample: one unescaped quote
	// pair around the label, no raw newline inside it.
	lines := strings.Split(strings.TrimSuffix(prom.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("prom output has %d lines, want 2 (TYPE + sample):\n%q", len(lines), prom.String())
	}

	var csvb strings.Builder
	if err := WriteCSV(&csvb, runs); err != nil {
		t.Fatal(err)
	}
	wantCSV := "# bad\"run\\\\name\\nwith=\"x\\\\n\"\\r tail\\\\\ntime_s,ops\n1,3\n"
	if csvb.String() != wantCSV {
		t.Fatalf("csv golden mismatch:\ngot:  %q\nwant: %q", csvb.String(), wantCSV)
	}
}

// TestWritePromGroupsTypeLines pins the exposition-format invariant that a
// metric name appearing in several runs gets exactly one # TYPE line.
func TestWritePromGroupsTypeLines(t *testing.T) {
	mk := func(label string) Run {
		r := New(time.Second, nil)
		var n float64
		r.Counter("shared", func() float64 { return n })
		n = 1
		r.Sample(time.Second)
		return Run{Label: label, Reg: r}
	}
	var b strings.Builder
	if err := WriteProm(&b, []Run{mk("r1"), mk("r2")}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "# TYPE repro_shared_total"); got != 1 {
		t.Fatalf("%d TYPE lines for shared metric, want 1:\n%s", got, b.String())
	}
}

func TestCounterTracksDashOnly(t *testing.T) {
	r := New(time.Second, nil)
	var n float64
	r.Counter("quiet", func() float64 { return n })
	r.Gauge("loud", func() float64 { return n }).OnDashboard()
	n = 3
	r.Sample(time.Second)
	tracks := CounterTracks(r)
	if len(tracks) != 1 || tracks[0].Name != "loud" {
		t.Fatalf("tracks = %+v, want just loud", tracks)
	}
	if len(tracks[0].Times) != 1 || tracks[0].Values[0] != 3 {
		t.Fatalf("track samples wrong: %+v", tracks[0])
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 24); got != "" {
		t.Fatalf("empty series sparkline %q", got)
	}
	if got := Sparkline([]float64{0, 0, 0}, 24); got != "   " {
		t.Fatalf("flat zero series = %q, want three floor glyphs", got)
	}
	got := Sparkline([]float64{0, 1, 2, 4, 8}, 5)
	if len(got) != 5 {
		t.Fatalf("width = %d, want 5", len(got))
	}
	if got[0] != ' ' || got[4] != '@' {
		t.Fatalf("scaling wrong: %q", got)
	}
	// Non-increasing glyph density must follow non-increasing values.
	if got != " .:=@" {
		t.Fatalf("sparkline = %q, want \" .:=@\"", got)
	}
	// A positive-floor series still scales from zero.
	warm := Sparkline([]float64{5, 5, 5, 5}, 4)
	if warm != "@@@@" {
		t.Fatalf("positive flat series = %q, want all-peak", warm)
	}
}

// TestObserveZeroAllocs pins the zero-cost contract of the hot observation
// path: Observe on both a real and a nil histogram must not allocate.
func TestObserveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation budget checked without -race")
	}
	h := New(time.Second, nil).Histogram("lat")
	if n := testing.AllocsPerRun(100, func() { h.Observe(3 * time.Microsecond) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.0f/op", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(100, func() { nilH.Observe(3 * time.Microsecond) }); n != 0 {
		t.Fatalf("nil Histogram.Observe allocates %.0f/op", n)
	}
}

// TestExportAllocBudget pins the append-based exporters' allocations to
// O(series and runs): WriteCSV plus WriteProm over eight times the sample
// boundaries of the same registries must allocate no more than over one.
func TestExportAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation budget checked without -race")
	}
	build := func(boundaries int) []Run {
		var runs []Run
		for _, label := range []string{"run one", "run two"} {
			r := New(time.Second, nil)
			var total, busy, inFlight float64
			h := registerSinkSeries(r, &total, &busy, &inFlight)
			drive(r, h, &total, &busy, &inFlight, boundaries)
			runs = append(runs, Run{Label: label, Reg: r})
		}
		return runs
	}
	allocs := func(runs []Run) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := WriteCSV(io.Discard, runs); err != nil {
				t.Fatal(err)
			}
			if err := WriteProm(io.Discard, runs); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, eight := allocs(build(20)), allocs(build(160))
	if eight > one {
		t.Errorf("WriteCSV+WriteProm: %v allocs for 8x the samples, %v for 1x; want no growth", eight, one)
	}
}
