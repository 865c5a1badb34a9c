package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The breakdown rows are the mean±std of per-process class totals within a
// role, as the recorder folds them from the spans. Detail spans count
// nowhere, a process with spans of other classes counts zero for a class
// it lacks, and a process with detail spans alone is no member of its
// role.
func TestBreakdownRowsFoldSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []trace.Span{
		{Proc: "producer0", Name: "md_compute", Class: trace.ClassCompute, Dur: 10 * ms},
		{Proc: "producer0", Component: "ssd", Name: "write", Class: trace.ClassDetail, Dur: ms},
		{Proc: "producer0", Name: "write_buf", Class: trace.ClassMovement, Dur: 2 * ms},
		{Proc: "consumer0", Name: "fetch", Class: trace.ClassIdle, Dur: 5 * ms},
		{Proc: "producer1", Name: "write_buf", Class: trace.ClassMovement, Dur: 6 * ms},
		{Proc: "producer2", Component: "ssd", Name: "write", Class: trace.ClassDetail, Dur: ms},
		{Proc: "ost0", Name: "noise", Class: trace.ClassIdle, Dur: 7 * ms},
		{Proc: "producer0", Name: "write_buf", Class: trace.ClassMovement, Dur: 2 * ms},
	}
	sum := func(xs ...float64) string { return fmtMS(stats.Summarize(xs)) }
	zero := fmtMS(stats.Summary{})
	want := [][]string{
		{"run", "producer", "2", sum(0.004, 0.006), sum(0, 0), sum(0.010, 0), zero, zero, stats.FormatSeconds(0.005)},
		{"run", "consumer", "1", sum(0), sum(0.005), zero, zero, zero, stats.FormatSeconds(0.005)},
	}
	rec := trace.NewRecorder()
	for _, s := range spans {
		rec.Emit(s)
	}
	if got := breakdownRows("run", rec.Totals()); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows\n%q\nwant\n%q", got, want)
	}
}

// A run that a fault kills mid-sweep is the one place a streaming
// collector's trace and a keeping one's differ: the stream has already
// written the block the run started, while a keeping collector never sees
// the killed run. So the kept document, minus its footer, is a byte prefix
// of the streamed one, and only the stream names the killed run. Both
// drain the same breakdown rows, from the healthy run alone. Quick sweeps
// never kill a traced repetition, which is why this case is built here.
func TestTraceKeepsKilledRunBlock(t *testing.T) {
	m := models.Model{Name: "TINY", Atoms: 2_000, StepsPerSecond: 10_000, Stride: 50}
	healthy := core.Config{Backend: core.XFS, Model: m, Pairs: 2, SingleNode: true}
	killed := healthy
	killed.Faults = &faults.Spec{Events: []faults.Event{{At: time.Millisecond, Kind: faults.DeviceFail, Target: 0, For: time.Hour}}}
	cells := []Cell{{Cfg: healthy, Label: "healthy-run"}, {Cfg: killed, Label: "killed-run"}}
	o := Options{Reps: 1, Frames: 4, Workers: 1}

	buffered := o
	buffered.Trace = NewCollector()
	res, err := buffered.Run(cells, FaultKills...)
	if err != nil {
		t.Fatal(err)
	}
	if res[0][0] == nil || res[1][0] != nil {
		t.Fatalf("want the first cell to finish and the second to be killed, got %v", res)
	}
	var want bytes.Buffer
	if err := trace.WriteChrome(&want, buffered.Trace.Runs); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	streamed := o
	streamed.Trace = NewStreamCollector(&got)
	if _, err := streamed.Run(cells, FaultKills...); err != nil {
		t.Fatal(err)
	}
	if err := streamed.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(streamed.Trace.Runs); n != 0 {
		t.Errorf("the streaming collector kept %d runs, want none", n)
	}
	if g, w := streamed.Trace.Drain("x"), buffered.Trace.Drain("x"); !reflect.DeepEqual(g, w) || len(w.Rows) != 2 {
		t.Errorf("streamed breakdown %v, kept %v; want the same two rows", g, w)
	}

	footer := []byte("\n]}\n") // what ChromeStream.Close writes
	body, ok := bytes.CutSuffix(want.Bytes(), footer)
	if !ok {
		t.Fatalf("kept trace does not end with the footer %q", footer)
	}
	if !bytes.HasPrefix(got.Bytes(), body) || got.Len() <= want.Len() {
		t.Errorf("kept trace (%d bytes) minus its footer is not a proper prefix of the streamed one (%d bytes)", want.Len(), got.Len())
	}
	for _, c := range []struct {
		doc  []byte
		name string
		want bool
	}{
		{want.Bytes(), "kept", false},
		{got.Bytes(), "streamed", true},
	} {
		if has := bytes.Contains(c.doc, []byte(`"killed-run"`)); has != c.want {
			t.Errorf("%s trace names the killed run: %v, want %v", c.name, has, c.want)
		}
		if !bytes.Contains(c.doc, []byte(`"healthy-run"`)) {
			t.Errorf("%s trace lacks the healthy run", c.name)
		}
	}
}
