package critpath

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

const ms = time.Millisecond

// chain builds the canonical two-proc coarse-sync shape: proc 1 (consumer)
// waits from 0 to 10ms, released at 8ms by proc 0 (producer) which computed
// [0,8) and then ran to 10ms; the consumer then computes [10,20).
func chain() *Graph {
	r := NewRecorder()
	r.StartProc(0, "producer", -1, 0)
	r.Begin(0, "workflow", "md_compute", trace.ClassCompute, 0)
	r.StartProc(1, "consumer", -1, 0)
	r.Begin(1, "workflow", "explicit_sync", trace.ClassIdle, 0)
	r.BeginWait(1, 0)
	r.Release(0, 1, 8*ms)
	r.End(0, 8*ms)
	r.EndWait(1, 10*ms)
	r.End(1, 10*ms)
	r.Begin(1, "workflow", "analytics", trace.ClassCompute, 10*ms)
	r.EndProc(0, 10*ms)
	r.End(1, 20*ms)
	r.EndProc(1, 20*ms)
	return r.Finish(20 * ms)
}

func TestExtractWalksReleaseEdge(t *testing.T) {
	cp := Extract(chain())
	if cp.Makespan != 20*ms {
		t.Fatalf("makespan %v, want 20ms", cp.Makespan)
	}
	// [10,20) analytics on consumer, wake latency [8,10) on the wait label,
	// [0,8) md_compute on producer: tiles the makespan exactly.
	if cp.Attributed+cp.Untracked != cp.Makespan {
		t.Fatalf("tiling broken: attributed %v + untracked %v != %v", cp.Attributed, cp.Untracked, cp.Makespan)
	}
	if cp.Untracked != 0 {
		t.Fatalf("untracked %v, want 0", cp.Untracked)
	}
	if cp.Edges != 1 {
		t.Fatalf("edges %d, want 1", cp.Edges)
	}
	want := map[string]Time{"md_compute": 8 * ms, "analytics": 10 * ms, "explicit_sync": 2 * ms}
	for _, row := range cp.Rows {
		if want[row.Name] != row.Total {
			t.Errorf("row %s: total %v, want %v", row.Name, row.Total, want[row.Name])
		}
		delete(want, row.Name)
	}
	if len(want) != 0 {
		t.Errorf("missing rows: %v", want)
	}
	if cp.ByClass[trace.ClassCompute] != 18*ms || cp.ByClass[trace.ClassIdle] != 2*ms {
		t.Errorf("class split: %v", cp.ByClass)
	}
	// The gated table names the sync point with the full wait interval.
	if len(cp.Waits) != 1 || cp.Waits[0].Name != "explicit_sync" || cp.Waits[0].Gated != 10*ms {
		t.Errorf("waits: %+v", cp.Waits)
	}
}

func TestExtractSkipsBackgroundRoots(t *testing.T) {
	r := NewRecorder()
	r.StartProc(0, "worker", -1, 0)
	r.Begin(0, "workflow", "compute", trace.ClassCompute, 0)
	r.End(0, 10*ms)
	r.EndProc(0, 10*ms)
	// Noise proc outlives the workflow; it must not become the walk root.
	r.StartProc(1, "noise", -1, 0)
	r.SetBackground(1)
	r.Begin(1, "lustre", "background_noise", trace.ClassDetail, 0)
	r.End(1, 50*ms)
	r.EndProc(1, 50*ms)
	cp := Extract(r.Finish(50 * ms))
	if cp.Makespan != 10*ms {
		t.Fatalf("makespan %v, want the non-background proc's 10ms", cp.Makespan)
	}
	if len(cp.Rows) != 1 || cp.Rows[0].Name != "compute" {
		t.Fatalf("rows: %+v", cp.Rows)
	}
}

// A proc that wakes a peer and blocks at the same instant must not bounce
// the walk forward in time (the strict findSeg contract).
func TestExtractWakeThenBlockSameInstant(t *testing.T) {
	r := NewRecorder()
	r.StartProc(0, "a", -1, 0)
	r.Begin(0, "w", "run_a", trace.ClassCompute, 0)
	r.StartProc(1, "b", -1, 0)
	r.Begin(1, "w", "wait_b", trace.ClassIdle, 0)
	r.BeginWait(1, 0)
	// a wakes b at 5ms and immediately blocks; b later wakes a at 9ms.
	r.Release(0, 1, 5*ms)
	r.BeginWait(0, 5*ms)
	r.EndWait(1, 5*ms)
	r.End(1, 5*ms)
	r.Begin(1, "w", "run_b", trace.ClassCompute, 5*ms)
	r.Release(1, 0, 9*ms)
	r.EndWait(0, 9*ms)
	r.EndProc(1, 9*ms)
	r.EndProc(0, 12*ms)
	cp := Extract(r.Finish(12 * ms))
	if cp.Attributed+cp.Untracked != cp.Makespan {
		t.Fatalf("tiling broken: %v + %v != %v", cp.Attributed, cp.Untracked, cp.Makespan)
	}
	if cp.Untracked != 0 {
		t.Fatalf("untracked %v, want 0 (walk: a [9,12) -> b [5,9) -> a [0,5))", cp.Untracked)
	}
}

func TestFindSegStrictlyBefore(t *testing.T) {
	segs := []Segment{
		{Start: 0, End: 5 * ms},
		{Start: 5 * ms, End: 5 * ms}, // zero-length wait
		{Start: 5 * ms, End: 9 * ms},
	}
	if got := findSeg(segs, 5*ms); got != 0 {
		t.Errorf("findSeg(5ms) = %d, want 0 (segment occupied just before t)", got)
	}
	if got := findSeg(segs, 6*ms); got != 2 {
		t.Errorf("findSeg(6ms) = %d, want 2", got)
	}
	if got := findSeg(segs, 0); got != -1 {
		t.Errorf("findSeg(0) = %d, want -1", got)
	}
}

func TestProduceFirstWinsAndDepSlack(t *testing.T) {
	r := NewRecorder()
	r.StartProc(0, "p", -1, 0)
	r.StartProc(1, "c", -1, 0)
	var slacks []Time
	r.OnDep = func(slack Time) { slacks = append(slacks, slack) }
	r.Produce("/f0", 2*ms)
	r.Produce("/f0", 7*ms) // mirror copy: ignored
	r.Depend("/f0", 5*ms)
	r.Depend("/missing", 5*ms) // unknown token: ignored
	g := r.Finish(10 * ms)
	if len(g.Deps) != 1 {
		t.Fatalf("deps: %+v", g.Deps)
	}
	d := g.Deps[0]
	if d.ProducedAt != 2*ms || d.ConsumedAt != 5*ms {
		t.Errorf("dep: %+v", d)
	}
	if len(slacks) != 1 || slacks[0] != 3*ms {
		t.Errorf("OnDep slacks: %v", slacks)
	}
	cp := Extract(g)
	if cp.SlackCount != 1 || cp.SlackMin != 3*ms || cp.SlackMax != 3*ms {
		t.Errorf("slack stats: count=%d min=%v max=%v", cp.SlackCount, cp.SlackMin, cp.SlackMax)
	}
}

func TestDiffAttributesGap(t *testing.T) {
	a := Extract(chain())
	// Run B: same shape, consumer wait stretched by 30ms (release at 38ms).
	r := NewRecorder()
	r.StartProc(0, "producer", -1, 0)
	r.Begin(0, "workflow", "md_compute", trace.ClassCompute, 0)
	r.StartProc(1, "consumer", -1, 0)
	r.Begin(1, "workflow", "explicit_sync", trace.ClassIdle, 0)
	r.BeginWait(1, 0)
	r.Release(0, 1, 38*ms)
	r.End(0, 38*ms)
	r.EndWait(1, 40*ms)
	r.End(1, 40*ms)
	r.Begin(1, "workflow", "analytics", trace.ClassCompute, 40*ms)
	r.EndProc(0, 40*ms)
	r.End(1, 50*ms)
	r.EndProc(1, 50*ms)
	b := Extract(r.Finish(50 * ms))

	d := Diff("A", a, "B", b)
	if d.Gap != 30*ms {
		t.Fatalf("gap %v, want 30ms", d.Gap)
	}
	if pct := d.AttributionPct(); pct < 99.9 || pct > 100.1 {
		t.Fatalf("attribution %.1f%%, want 100%%", pct)
	}
	// Biggest delta first: the producer compute stretch.
	if d.Rows[0].Name != "md_compute" || d.Rows[0].Delta != 30*ms {
		t.Fatalf("top row: %+v", d.Rows[0])
	}
}

func TestWaterfallAndFlows(t *testing.T) {
	r := NewRecorder()
	r.StartProc(0, "producer000", -1, 0)
	r.StartProc(1, "consumer000", -1, 0)
	r.Hop("/f0", "write", 0, ms, 2*ms, 64)
	r.Hop("/f0", "read", 1, 3*ms, 4*ms, 64)
	r.Hop("/f1", "write", 0, 5*ms, 6*ms, 32)
	g := r.Finish(10 * ms)

	var sb strings.Builder
	if err := WriteWaterfall(&sb, []LineageSet{{Label: "run1", Frames: g.Lineages}}); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "run,frame,hop,proc,start_us,dur_us,bytes\n" +
		"run1,/f0,write,producer000,1000,1000,64\n" +
		"run1,/f0,read,consumer000,3000,1000,64\n" +
		"run1,/f1,write,producer000,5000,1000,32\n"
	if got != want {
		t.Errorf("waterfall:\n%s\nwant:\n%s", got, want)
	}

	flows := FlowEvents(g.Lineages)
	// /f0 has two proc-bound hops -> one flow (start + finish); /f1 has one
	// hop -> no flow.
	if len(flows) != 2 {
		t.Fatalf("flows: %+v", flows)
	}
	if !flows[0].Start || flows[0].Proc != "producer000" || flows[0].At != 2*ms {
		t.Errorf("flow start: %+v", flows[0])
	}
	if flows[1].Start || flows[1].Proc != "consumer000" || flows[1].At != 3*ms {
		t.Errorf("flow finish: %+v", flows[1])
	}
	if flows[0].ID != flows[1].ID {
		t.Errorf("flow ids differ: %d vs %d", flows[0].ID, flows[1].ID)
	}
}

// Two identical recording sequences must produce identical graphs and
// byte-identical reports — the package's determinism contract reduced to
// its core: no map iteration anywhere on the output path.
func TestDeterministicExtraction(t *testing.T) {
	a, b := Extract(chain()), Extract(chain())
	if len(a.Rows) != len(b.Rows) {
		t.Fatal("row counts differ")
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Errorf("row %d: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
	for i := range a.Waits {
		if a.Waits[i] != b.Waits[i] {
			t.Errorf("wait %d: %+v vs %+v", i, a.Waits[i], b.Waits[i])
		}
	}
}

func TestFinishStrandedWaiter(t *testing.T) {
	r := NewRecorder()
	r.StartProc(0, "stuck", -1, 0)
	r.Begin(0, "w", "wait", trace.ClassIdle, 0)
	r.BeginWait(0, 2*ms)
	g := r.Finish(10 * ms)
	segs := g.Procs[0].Segments
	if len(segs) != 2 {
		t.Fatalf("segments: %+v", segs)
	}
	last := segs[len(segs)-1]
	if last.Kind != Wait || last.End != 10*ms {
		t.Errorf("stranded wait not closed at finish: %+v", last)
	}
}

// TestExportAllocBudget pins the waterfall writer's and FlowEvents'
// allocations to a constant: eight times the hops over the same frames
// and procs must allocate no more than one time.
func TestExportAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	build := func(hops int) []LineageSet {
		r := NewRecorder()
		r.StartProc(0, "producer000", -1, 0)
		r.StartProc(1, "consumer000", -1, 0)
		for i := 0; i < hops; i++ {
			at := Time(i%16) * ms
			r.Hop("/f0", "write", 0, at, at+1500, 64)
			r.Hop("/f1", "read", 1, at, at+2*ms, 32)
		}
		return []LineageSet{{Label: "run1", Frames: r.Finish(20 * ms).Lineages}}
	}
	allocs := func(runs []LineageSet) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := WriteWaterfall(io.Discard, runs); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, eight := allocs(build(16)), allocs(build(128))
	if eight > one {
		t.Errorf("WriteWaterfall: %v allocs for 8x the hops, %v for 1x; want no growth", eight, one)
	}
	flowAllocs := func(runs []LineageSet) float64 {
		return testing.AllocsPerRun(10, func() { _ = FlowEvents(runs[0].Frames) })
	}
	one, eight = flowAllocs(build(16)), flowAllocs(build(128))
	if eight > one {
		t.Errorf("FlowEvents: %v allocs for 8x the hops, %v for 1x; want no growth", eight, one)
	}
}

// Graph.Unclosed counts only foreground procs that end inside a region:
// a balanced proc, a background proc ending mid-region, and a proc that
// never ends (aborted, so EndProc never comes) are not counted.
func TestUnclosedCountsForegroundEndsInsideRegion(t *testing.T) {
	if g := chain(); g.Unclosed != 0 {
		t.Fatalf("balanced run: Unclosed = %d, want 0", g.Unclosed)
	}
	r := NewRecorder()
	for i, name := range []string{"leaky", "noise", "aborted", "nested"} {
		r.StartProc(int32(i), name, -1, 0)
		r.Begin(int32(i), "net", "transfer", trace.ClassDetail, 0)
	}
	r.SetBackground(1)
	r.Begin(3, "net", "inner", trace.ClassDetail, ms)
	r.End(3, 2*ms) // closes the inner region only
	r.EndProc(0, 3*ms)
	r.EndProc(1, 3*ms)
	r.EndProc(3, 3*ms)
	if g := r.Finish(4 * ms); g.Unclosed != 2 {
		t.Fatalf("Unclosed = %d, want 2 (leaky, nested)", g.Unclosed)
	}
}
