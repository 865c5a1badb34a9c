package metrics

import (
	"bytes"
	"strconv"
	"testing"
	"time"
)

// registerSinkSeries wires one series of every kind plus a histogram onto
// r, driven by the shared cumulative state.
func registerSinkSeries(r *Registry, total, busy, inFlight *float64) *Histogram {
	r.Gauge("gauge", func() float64 { return *inFlight })
	r.Counter("counter", func() float64 { return *total })
	r.Rate("rate", func() float64 { return *total }).OnDashboard()
	r.Util("util", 2, func() float64 { return *busy })
	r.Ratio("ratio", func() float64 { return *busy }, func() float64 { return *total })
	return r.Histogram("lat")
}

// drive samples n boundaries with evolving state.
func drive(r *Registry, h *Histogram, total, busy, inFlight *float64, n int) {
	for i := 1; i <= n; i++ {
		*total += float64(i) * 3
		*busy += float64(i) * 0.4e9
		*inFlight = float64(i % 4)
		h.Observe(time.Duration(i) * 37 * time.Microsecond)
		r.Sample(time.Duration(i) * time.Second)
	}
}

// Writing runs one at a time through a CSVSink, flushing after each as a
// streamed sweep does, must give byte-for-byte the CSV that WriteCSV gives
// over the same runs, a run with no sample boundary included.
func TestCSVSinkMatchesWriteCSV(t *testing.T) {
	var runs []Run
	for run, boundaries := range []int{5, 3, 0} {
		r := New(time.Second)
		var total, busy, inFlight float64
		h := registerSinkSeries(r, &total, &busy, &inFlight)
		drive(r, h, &total, &busy, &inFlight, boundaries)
		runs = append(runs, Run{Label: "sinkrun " + strconv.Itoa(run), Reg: r})
	}
	var want bytes.Buffer
	if err := WriteCSV(&want, runs); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	sink := NewCSVSink(&got)
	for _, run := range runs {
		sink.WriteRun(run)
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("per-run CSV diverged from WriteCSV:\n got:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

// A registry whose probes were dropped exports the CSV and the Prometheus
// snapshot it exported before, for every series kind and the histogram.
func TestDropProbesKeepsExports(t *testing.T) {
	r := New(time.Second)
	var total, busy, inFlight float64
	h := registerSinkSeries(r, &total, &busy, &inFlight)
	drive(r, h, &total, &busy, &inFlight, 7)
	runs := []Run{{Label: "dropped", Reg: r}}
	export := func() (csv, prom []byte) {
		var c, p bytes.Buffer
		if err := WriteCSV(&c, runs); err != nil {
			t.Fatal(err)
		}
		if err := WriteProm(&p, runs); err != nil {
			t.Fatal(err)
		}
		return c.Bytes(), p.Bytes()
	}
	csv, prom := export()
	r.DropProbes()
	for _, s := range r.Series() {
		if s.probe != nil || s.den != nil {
			t.Errorf("series %q kept a probe", s.Name)
		}
	}
	gotCSV, gotProm := export()
	if !bytes.Equal(gotCSV, csv) {
		t.Errorf("CSV changed after DropProbes:\n got:\n%s\nwant:\n%s", gotCSV, csv)
	}
	if !bytes.Equal(gotProm, prom) {
		t.Errorf("snapshot changed after DropProbes:\n got:\n%s\nwant:\n%s", gotProm, prom)
	}
	var nilReg *Registry
	nilReg.DropProbes()
}
