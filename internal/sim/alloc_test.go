package sim

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// steadyAllocs measures the total heap allocations of one engine lifetime
// delivering `events` sleep events, each inside a phase recorded in the
// process's profile, followed by a zero-length phase kept out of it.
func steadyAllocs(t *testing.T, events int) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		e := NewEngine(1)
		e.Spawn("p", func(p *Proc) {
			p.KeepProfile()
			for i := 0; i < events; i++ {
				r := p.Region("test", "step", trace.ClassCompute)
				p.Sleep(time.Microsecond)
				r.End(0, "")
				p.Span("test", "mark", trace.ClassDetail).End(0, "")
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// The kernel's steady state is allocation-free (DESIGN.md §3c), and the
// span-tracer hooks must keep it that way when tracing is off: scaling the
// event count 100x must not add a single allocation — everything measured
// belongs to engine setup. This is the tracing-off half of the tentpole's
// zero-cost contract; the instrumented components pay one nil check per
// operation and nothing else.
func TestSteadyStateZeroAllocsWithTracingOff(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation budget checked without -race")
	}
	base := steadyAllocs(t, 200)
	long := steadyAllocs(t, 20_000)
	if delta := long - base; delta > 0 {
		t.Fatalf("steady state allocates: %0.f allocs over 19800 extra events (base %.0f, long %.0f)", delta, base, long)
	}
}

// pingPongAllocs measures the total heap allocations of one engine
// lifetime driving a Block/Wake-heavy workload: a waiter parked in a
// Signal and a peer that broadcasts every microsecond — one release edge
// per round, exercising exactly the kernel paths the critical-path
// recorder hooks (Block, Wake, Spawn, next). Each wait is a profiled
// phase around one kept out of the profile.
func pingPongAllocs(t *testing.T, rounds int) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		e := NewEngine(1)
		var sig Signal
		e.Spawn("waiter", func(p *Proc) {
			p.KeepProfile()
			for i := 0; i < rounds; i++ {
				outer := p.Region("test", "sync", trace.ClassIdle)
				inner := p.Span("test", "wait", trace.ClassDetail)
				sig.Wait(p)
				inner.End(0, "")
				outer.End(0, "")
			}
		})
		e.Spawn("waker", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Sleep(time.Microsecond)
				sig.Broadcast()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// The critical-path recorder hooks must be invisible when no recorder is
// installed: 100x more Block/Wake edges, zero extra allocations. This is
// the disabled-path half of the §3k zero-cost contract (the enabled path
// is bounded by the graph size, not the event count; the off path costs
// one nil check per hook site).
func TestCritpathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation budget checked without -race")
	}
	base := pingPongAllocs(t, 200)
	long := pingPongAllocs(t, 20_000)
	if delta := long - base; delta > 0 {
		t.Fatalf("recorder-off Block/Wake path allocates: %.0f allocs over 19800 extra rounds (base %.0f, long %.0f)", delta, base, long)
	}
}
