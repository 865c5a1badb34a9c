package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// tracedBatch is a small mixed-backend batch with span recording on: the
// trace contract tests and the Chrome golden fixture all run it.
func tracedBatch() []Config {
	cfgs := mixedBatch()[:3] // DYAD, XFS, Lustre — one of each
	for i := range cfgs {
		cfgs[i].RecordSpans = true
	}
	return cfgs
}

// chromeOf runs the batch and serializes every traced result.
func chromeOf(t *testing.T, cfgs []Config, workers int) []byte {
	t.Helper()
	results, err := RunMany(cfgs, workers)
	if err != nil {
		t.Fatal(err)
	}
	var runs []trace.Run
	for _, res := range results {
		if len(res.Spans) == 0 {
			t.Fatalf("traced run %s recorded no spans", res.Cfg.Label())
		}
		runs = append(runs, trace.Run{Label: res.Cfg.Label(), Spans: res.Spans})
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, runs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Recording spans must not move a single measurement: the tracer observes
// the virtual timeline, it never participates in it. And the measurement
// is the span stream's own split: each role's Movement and Idle spans,
// summed over its processes and averaged over the pairs, are exactly the
// result's Producer and Consumer, healthy, faulted or coarse-synced.
func TestTracedRunMatchesUntraced(t *testing.T) {
	coarse := Config{Backend: DYAD, Model: tinyModel(), Frames: 6, Pairs: 2, Seed: 8,
		ComputeJitter: 0.01, ForceCoarseSync: true}
	plain := append(append(mixedBatch(), faultedBatch()...), coarse)
	traced := make([]Config, len(plain))
	copy(traced, plain)
	for i := range traced {
		traced[i].RecordSpans = true
	}
	a, err := RunMany(plain, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMany(traced, 4)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(a) != canonical(b) {
		t.Fatalf("tracing changed measurements:\n--- untraced ---\n%s--- traced ---\n%s", canonical(a), canonical(b))
	}
	for i, res := range a {
		if res.Spans != nil {
			t.Fatalf("untraced run %d carries spans", i)
		}
		if len(b[i].Spans) == 0 {
			t.Fatalf("traced run %d carries no spans", i)
		}
		prod, cons := spanSplit(b[i])
		if prod != res.Producer || cons != res.Consumer {
			t.Errorf("run %d (%s): span split producer %v consumer %v, result %v %v",
				i, res.Cfg.Label(), prod, cons, res.Producer, res.Consumer)
		}
		if res.Consumer.Idle == 0 || res.Consumer.Movement == 0 {
			t.Errorf("run %d (%s): consumer split %v has an empty column", i, res.Cfg.Label(), res.Consumer)
		}
	}
}

// spanSplit folds a traced result's spans into each role's movement and
// idle: summed over the role's processes, then averaged over the pairs.
func spanSplit(res *Result) (prod, cons Totals) {
	for _, s := range res.Spans {
		var role *Totals
		switch {
		case strings.HasPrefix(s.Proc, "producer"):
			role = &prod
		case strings.HasPrefix(s.Proc, "consumer"):
			role = &cons
		default:
			continue
		}
		switch s.Class {
		case trace.ClassMovement:
			role.Movement += s.Dur
		case trace.ClassIdle:
			role.Idle += s.Dur
		}
	}
	n := time.Duration(res.Cfg.Pairs)
	return Totals{Movement: prod.Movement / n, Idle: prod.Idle / n},
		Totals{Movement: cons.Movement / n, Idle: cons.Idle / n}
}

// The span stream — and therefore the serialized Chrome trace — must be
// byte-identical for any worker count.
func TestTracedParallelMatchesSerial(t *testing.T) {
	serial := chromeOf(t, tracedBatch(), 1)
	parallel := chromeOf(t, tracedBatch(), 8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("traced -j1 and -j8 produced different Chrome traces")
	}
}

// Same contract under fault injection: recovery spans (timeouts, backoff,
// failover, degraded reads) come from the same deterministic plans as the
// recovery metrics, so a faulted trace is worker-count-independent too.
func TestFaultedTracedParallelMatchesSerial(t *testing.T) {
	faulted := faultedBatch()
	for i := range faulted {
		faulted[i].RecordSpans = true
	}
	serial := chromeOf(t, faulted, 1)
	parallel := chromeOf(t, faulted, 8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("faulted traced -j1 and -j8 produced different Chrome traces")
	}
	// The traced faulted runs must actually contain recovery spans, or the
	// determinism check guards nothing interesting.
	results, err := RunMany(faulted, 4)
	if err != nil {
		t.Fatal(err)
	}
	recovery := 0
	for _, res := range results {
		for _, s := range res.Spans {
			if s.Class == trace.ClassRecovery {
				recovery++
			}
		}
	}
	if recovery == 0 {
		t.Fatal("faulted traced batch recorded no recovery spans")
	}
}

// TestChromeTraceGolden locks the serialized Chrome trace of a small mixed
// batch against a committed fixture: span emission points, classes, and the
// serialization format are observable output, and drift must be deliberate.
// Regenerate with: go test ./internal/core -run ChromeTraceGolden -update
func TestChromeTraceGolden(t *testing.T) {
	got := chromeOf(t, tracedBatch(), 4)
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Chrome trace drifted from golden fixture (%d vs %d bytes); rerun with -update if deliberate", len(got), len(want))
	}
}

// Spans must cover every instrumented component layer.
func TestSpanCoverageAndStats(t *testing.T) {
	results, err := RunMany(tracedBatch(), 4)
	if err != nil {
		t.Fatal(err)
	}
	components := map[string]bool{}
	for _, res := range results {
		for _, s := range res.Spans {
			components[s.Component] = true
		}
	}
	for _, want := range []string{"workflow", "ssd", "net", "kvs", "xfs", "lustre"} {
		if !components[want] {
			t.Fatalf("no spans from component %q in mixed batch (have %v)", want, components)
		}
	}
}
