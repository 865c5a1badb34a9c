package experiments

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// A streamed sweep writes the CSV that buffered collection exports, and
// keeps no registry on a Result once its cell is collected: each cell's
// registries are dropped before the next cell runs, so a streamed sweep
// holds one cell's samples at most. faultsweep has many cells in one
// sweep and runs that faults kill.
func TestMetricsSinkMatchesBuffered(t *testing.T) {
	e, err := ByID("faultsweep")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Reps: 2, Frames: 4, Workers: 2}

	buffered := o
	buffered.Metrics = NewMetricsCollector()
	if _, err := e.Run(buffered); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := metrics.WriteCSV(&want, buffered.Metrics.Runs); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	streamed := o
	streamed.MetricsStream = &MetricsStream{Sink: metrics.NewCSVSink(&got)}
	var seen []*core.Result
	metered := 0
	observeBatch = func(results []*core.Result) {
		for _, res := range seen {
			if res != nil && res.Metrics != nil {
				t.Fatalf("a result of an earlier cell still holds its registry when the next cell has run")
			}
		}
		for _, res := range results {
			if res != nil && res.Metrics != nil {
				metered++
			}
		}
		seen = append(seen, results...)
	}
	defer func() { observeBatch = nil }()
	if _, err := e.Run(streamed); err != nil {
		t.Fatal(err)
	}
	if err := streamed.MetricsStream.Sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("streamed metrics CSV (%d bytes) diverged from the buffered export (%d bytes)", got.Len(), want.Len())
	}
	if metered != len(buffered.Metrics.Runs) || metered == 0 {
		t.Errorf("streamed sweep metered %d runs, buffered %d", metered, len(buffered.Metrics.Runs))
	}
	for i, res := range seen {
		if res != nil && res.Metrics != nil {
			t.Errorf("streamed result %d kept its registry", i)
		}
	}
}
