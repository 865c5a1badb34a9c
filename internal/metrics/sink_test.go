package metrics

import (
	"bytes"
	"strconv"
	"strings"
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

// WriteCSV over runs carrying every series kind, a run with no sample
// boundary among them, writes one block per run whose header names the
// series in registration order and whose rows parse back to the sampled
// times and values.
func TestWriteCSVRowsMatchSamples(t *testing.T) {
	var runs []Run
	for run, boundaries := range []int{5, 0, 3} {
		r := New(time.Second, nil)
		var total, busy, inFlight float64
		h := registerSinkSeries(r, &total, &busy, &inFlight)
		drive(r, h, &total, &busy, &inFlight, boundaries)
		runs = append(runs, Run{Label: "csvrun " + strconv.Itoa(run), Reg: r})
	}
	var b bytes.Buffer
	if err := WriteCSV(&b, runs); err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n\n")
	if len(blocks) != len(runs) {
		t.Fatalf("%d CSV blocks, want %d:\n%s", len(blocks), len(runs), b.String())
	}
	for i, run := range runs {
		lines := strings.Split(blocks[i], "\n")
		series, times := run.Reg.Series(), run.Reg.Times()
		if len(lines) != 2+len(times) {
			t.Fatalf("run %d: %d lines, want %d", i, len(lines), 2+len(times))
		}
		if want := "# " + run.Label; lines[0] != want {
			t.Errorf("run %d comment = %q, want %q", i, lines[0], want)
		}
		header := []string{"time_s"}
		for _, s := range series {
			header = append(header, s.Name)
		}
		if want := strings.Join(header, ","); lines[1] != want {
			t.Errorf("run %d header = %q, want %q", i, lines[1], want)
		}
		for j, line := range lines[2:] {
			cells := strings.Split(line, ",")
			if len(cells) != len(header) {
				t.Fatalf("run %d row %d: %d cells, want %d", i, j, len(cells), len(header))
			}
			want := []float64{times[j].Seconds()}
			for _, s := range series {
				want = append(want, s.Samples[j])
			}
			for k, c := range cells {
				v, err := strconv.ParseFloat(c, 64)
				if err != nil || v != want[k] {
					t.Errorf("run %d row %d column %s = %q, want %v", i, j, header[k], c, want[k])
				}
			}
		}
	}
}

// A registry whose probes were dropped exports the CSV and the Prometheus
// snapshot it exported before, for every series kind and the histogram.
func TestDropProbesKeepsExports(t *testing.T) {
	r := New(time.Second, nil)
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
