package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"testing"
	"time"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Emit(Span{Proc: "p", Name: "op", Dur: time.Millisecond})
	if r.Spans() != nil || r.Totals() != nil {
		t.Fatal("nil recorder returned spans or totals")
	}
}

func TestRecorderKeepsEmissionOrder(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 5; i++ {
		r.Emit(Span{Proc: "p", Name: "op", Start: time.Duration(i)})
	}
	spans := r.Spans()
	if len(spans) != 5 || len(r.spans) != 5 {
		t.Fatalf("recorded %d spans, want 5", len(spans))
	}
	for i, s := range spans {
		if s.Start != time.Duration(i) {
			t.Fatalf("span %d has start %v: emission order not preserved", i, s.Start)
		}
	}
}

// The fold sums each process's non-detail spans per class, in the order of
// its first non-detail span, in both recorder modes; a process with detail
// spans alone has no entry, and Reset empties the fold.
func TestRecorderFoldsClassTotals(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{Proc: "consumer0", Component: "ssd", Name: "read", Class: ClassDetail, Dur: ms},
		{Proc: "producer0", Name: "md_compute", Class: ClassCompute, Dur: 10 * ms},
		{Proc: "producer0", Name: "write_buf", Class: ClassMovement, Dur: 2 * ms},
		{Proc: "consumer0", Name: "fetch", Class: ClassIdle, Dur: 5 * ms},
		{Proc: "ssd-only", Name: "write", Class: ClassDetail, Dur: ms},
		{Proc: "producer0", Name: "write_buf", Class: ClassMovement, Dur: 3 * ms},
		{Proc: "producer0", Name: "stall", Class: ClassBackpressure, Dur: 4 * ms},
	}
	var p0, c0 ProcTotals
	p0.Proc, c0.Proc = "producer0", "consumer0"
	p0.Totals[ClassCompute], p0.Totals[ClassMovement], p0.Totals[ClassBackpressure] = 10*ms, 5*ms, 4*ms
	c0.Totals[ClassIdle] = 5 * ms
	want := []ProcTotals{p0, c0}

	buffered := NewRecorder()
	streamed := NewChromeStream(io.Discard).StartRun("run")
	for _, r := range []*Recorder{buffered, streamed} {
		for _, s := range spans {
			r.Emit(s)
		}
		if got := r.Totals(); !slices.Equal(got, want) {
			t.Errorf("streaming %v: totals %+v, want %+v", r.Streaming(), got, want)
		}
	}
	buffered.Reset()
	buffered.Emit(spans[3])
	if got := buffered.Totals(); !slices.Equal(got, want[1:]) {
		t.Errorf("after Reset: totals %+v, want %+v", got, want[1:])
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		ClassDetail: "detail", ClassMovement: "movement", ClassIdle: "idle",
		ClassCompute: "compute", ClassRecovery: "recovery",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("Class(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestHistBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0}, // < 1µs
		{time.Microsecond, 1},      // [1µs, 4µs)
		{3 * time.Microsecond, 1},
		{4 * time.Microsecond, 2},           // [4µs, 16µs)
		{time.Millisecond, 5},               // 1000µs -> 4^5=1024 ceiling
		{10 * time.Second, HistBuckets - 1}, // clamped to last bucket
	}
	for _, c := range cases {
		if got := HistBucket(c.d); got != c.want {
			t.Fatalf("HistBucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func buildTestRuns() []Run {
	return []Run{
		{Label: "run A", Spans: []Span{
			{Proc: "producer0", Component: "workflow", Name: "md_compute", Class: ClassCompute, Start: 0, Dur: 1500 * time.Nanosecond},
			{Proc: "producer0", Component: "ssd", Name: "write", Start: 1500 * time.Nanosecond, Dur: 2 * time.Microsecond, Bytes: 4096, Attr: "node0/ssd"},
			{Proc: "consumer0", Component: "workflow", Name: "frame_consumed", Start: 4 * time.Microsecond}, // instant
		}},
		{Label: "run \"B\"", Spans: []Span{
			{Proc: "consumer0", Component: "lustre", Name: "ost_rpc", Class: ClassRecovery, Start: time.Millisecond, Dur: 30 * time.Millisecond},
		}},
	}
}

func TestWriteChromeShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, buildTestRuns()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Name string          `json:"name"`
			Cat  string          `json:"cat"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteChrome emitted invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	var meta, complete, instant int
	pids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		pids[e.Pid] = true
		switch e.Ph {
		case "M":
			meta++
		case "X":
			complete++
		case "i":
			instant++
		}
	}
	// 2 process_name + 3 thread_name metadata records.
	if meta != 5 || complete != 3 || instant != 1 {
		t.Fatalf("event mix meta=%d complete=%d instant=%d, want 5/3/1", meta, complete, instant)
	}
	if !pids[1] || !pids[2] || len(pids) != 2 {
		t.Fatalf("pids %v, want {1, 2}", pids)
	}
	// 1500ns must render as fractional microseconds, not truncate to 1µs.
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Name == "md_compute" && e.Dur != 1.5 {
			t.Fatalf("md_compute dur %v µs, want 1.5", e.Dur)
		}
	}
}

func TestWriteChromeDeterministic(t *testing.T) {
	runs := buildTestRuns()
	var a, b bytes.Buffer
	if err := WriteChrome(&a, runs); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, runs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two serializations of the same runs differ")
	}
}
