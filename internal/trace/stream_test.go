package trace

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"
)

// synthSpans builds a deterministic span stream exercising every serializer
// branch: whole and fractional timestamps, zero-duration instants, bytes,
// attributes, classes, and multiple procs.
func synthSpans(n int) []Span {
	procs := []string{"producer000", "consumer000", "broker"}
	spans := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		s := Span{
			Proc:      procs[i%len(procs)],
			Component: "ssd",
			Name:      "write",
			Class:     Class(i % 5),
			Start:     time.Duration(i) * 123456 * time.Nanosecond,
			Dur:       time.Duration(i%7) * 1500 * time.Nanosecond,
		}
		if i%3 == 0 {
			s.Bytes = int64(i) * 4096
		}
		if i%5 == 0 {
			s.Attr = "node0/ssd"
		}
		spans = append(spans, s)
	}
	return spans
}

// Driving a ChromeStream span by span, with each run's flows and counter
// tracks at EndRun, must produce byte-for-byte the document WriteChrome
// renders from the buffered runs — the identity that makes streamed traces
// drop-in replacements for buffered ones.
func TestChromeStreamMatchesWriteChrome(t *testing.T) {
	runs := []Run{
		{Label: "run one", Spans: synthSpans(100)},
		{Label: "run two", Spans: synthSpans(37), Counters: []Counter{{
			Name:   "core/frames_produced",
			Times:  []time.Duration{250 * time.Millisecond, 500 * time.Millisecond},
			Values: []float64{0, 4.5},
		}}, Flows: []Flow{
			{Name: "/f0", ID: 1, Proc: "producer000", At: 1500, Start: true},
			{Name: "/f0", ID: 1, Proc: "wfm", At: 2500}, // a proc with no span
		}},
		{Label: "empty run"},
	}
	var want bytes.Buffer
	if err := WriteChrome(&want, runs); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	cs := NewChromeStream(&got)
	for _, run := range runs {
		rec := cs.StartRun(run.Label)
		for _, s := range run.Spans {
			rec.Emit(s)
		}
		cs.EndRun(rec, run.Flows, run.Counters)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("streamed document diverged from WriteChrome:\n got %d bytes\nwant %d bytes", got.Len(), want.Len())
	}
}

// The bounded-memory contract: a million-span run through a streaming
// recorder must not grow the heap with the span count — spans serialize and
// die. A buffered recorder would retain ~96 MB of spans for the same run;
// the streaming recorder's live state is the tid map.
func TestStreamingRecorderBoundedMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews heap accounting")
	}
	cs := NewChromeStream(io.Discard)
	rec := cs.StartRun("big")

	emit := func(n int) {
		for i := 0; i < n; i++ {
			rec.Emit(Span{
				Proc: "p", Component: "ssd", Name: "write",
				Start: time.Duration(i) * time.Microsecond, Dur: 1500 * time.Nanosecond,
				Bytes: 4096,
			})
		}
	}
	emit(10_000) // warm the stream buffer and tid map

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	emit(1_000_000)
	runtime.GC()
	runtime.ReadMemStats(&after)

	if n := len(rec.spans); n != 0 {
		t.Fatalf("streaming recorder retained %d spans", n)
	}
	// One million retained spans would be ~96 MB; allow a generous 4 MB of
	// incidental churn.
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 4<<20 {
		t.Errorf("heap grew %d bytes across 1M streamed spans, want bounded", growth)
	}
}
