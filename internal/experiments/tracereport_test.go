package experiments

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// The breakdown rows are the mean±std of per-process class totals within a
// role. Detail spans count nowhere, a process with spans of other classes
// counts zero for a class it lacks, and a process with detail spans alone
// is no member of its role.
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
	if got := breakdownRows("run", spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows\n%q\nwant\n%q", got, want)
	}
}
