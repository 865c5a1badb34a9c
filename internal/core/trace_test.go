package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
)

// The span trace must show, for every pair and frame, consumption
// strictly after production — the fundamental causality invariant of the
// data-movement study — on every backend.
func TestTraceOrderingInvariant(t *testing.T) {
	m := tinyModel()
	for _, b := range []Backend{DYAD, XFS, Lustre} {
		cfg := Config{Backend: b, Model: m, Frames: 8, Pairs: 2, Seed: 7, RecordSpans: true}
		if b == XFS {
			cfg.SingleNode = true
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}

		// Each process marks its frames in order, so the k-th mark of a
		// pair's producer and of its consumer name the same frame.
		produced := map[string][]trace.Span{} // pair -> marks in frame order
		consumed := map[string]int{}          // pair -> frames consumed so far
		marks := 0
		for _, s := range res.Spans {
			if s.Component != "workflow" || (s.Name != "frame_produced" && s.Name != "frame_consumed") {
				continue
			}
			marks++
			if s.Bytes != m.FrameBytes() {
				t.Fatalf("%s: %s of %s carries %d bytes, want %d", b, s.Name, s.Proc, s.Bytes, m.FrameBytes())
			}
			if pair, ok := strings.CutPrefix(s.Proc, "producer"); ok {
				produced[pair] = append(produced[pair], s)
				continue
			}
			pair := strings.TrimPrefix(s.Proc, "consumer")
			f := consumed[pair]
			consumed[pair]++
			if f >= len(produced[pair]) {
				t.Fatalf("%s: pair %s frame %d consumed with no production mark", b, pair, f)
			}
			if pt := produced[pair][f].Start; s.Start <= pt {
				t.Fatalf("%s: pair %s frame %d consumed at %v, produced at %v", b, pair, f, s.Start, pt)
			}
		}
		if want := 2 * cfg.Pairs * cfg.Frames; marks != want {
			t.Fatalf("%s: %d frame marks, want %d", b, marks, want)
		}
	}
}

// The Chrome trace of a run (what mdworkflow -trace writes) is keyed per
// frame; spot-check it so external consumers can rely on it.
func TestTraceFormat(t *testing.T) {
	m := tinyModel()
	cfg := Config{Backend: DYAD, Model: m, Frames: 1, Pairs: 1, Seed: 1, RecordSpans: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, []trace.Run{{Label: cfg.Label(), Spans: res.Spans}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"producer000"`, `"consumer000"`, `"frame_produced"`, `"frame_consumed"`,
		`"attr":"/ensemble/pair000/frame00000.pb"`, fmt.Sprintf(`"bytes":%d`, m.FrameBytes())} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s:\n%s", want, out)
		}
	}
}
