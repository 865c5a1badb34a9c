package caliper_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/caliper"
	"repro/internal/sim"
	"repro/internal/trace"
)

// These tests record profiles the way the simulation does: a process that
// keeps one (sim.Proc.KeepProfile) opens phases, and its profile is read
// back through the process.

// record runs body in a process named p0 that keeps a profile and returns
// the process, whose profile outlives the run. A panic in body fails the
// run, and record returns the run's error.
func record(body func(p *sim.Proc)) (*sim.Proc, error) {
	e := sim.NewEngine(1)
	proc := e.Spawn("p0", func(p *sim.Proc) {
		p.KeepProfile()
		body(p)
	})
	return proc, e.Run()
}

// mustRecord is record for a body that must not fail.
func mustRecord(t *testing.T, body func(p *sim.Proc)) *sim.Proc {
	t.Helper()
	p, err := record(body)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNestedRegionsAccumulate(t *testing.T) {
	p := mustRecord(t, func(p *sim.Proc) {
		outer := p.Phase("outer")
		p.Sleep(10 * time.Millisecond)
		inner := p.Region("test", "inner", trace.ClassIdle)
		p.Sleep(5 * time.Millisecond)
		inner.End(0, "")
		p.Sleep(1 * time.Millisecond)
		outer.End()
	})

	prof := p.Profile()
	outer := prof.Root.Find("outer")
	inner := prof.Root.Find("inner")
	if outer == nil || inner == nil {
		t.Fatal("regions missing from profile")
	}
	if outer.Total != 16*time.Millisecond {
		t.Fatalf("outer total %v, want 16ms", outer.Total)
	}
	if inner.Total != 5*time.Millisecond {
		t.Fatalf("inner total %v, want 5ms", inner.Total)
	}
	if ex := exclusive(outer); ex != 11*time.Millisecond {
		t.Fatalf("outer exclusive %v, want 11ms", ex)
	}
}

// exclusive returns n's time not attributed to its children.
func exclusive(n *caliper.Node) time.Duration {
	t := n.Total
	for _, c := range n.Children {
		t -= c.Total
	}
	return t
}

func TestRepeatVisitsMerge(t *testing.T) {
	p := mustRecord(t, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r := p.Phase("r")
			p.Sleep(2 * time.Millisecond)
			r.End()
		}
	})
	r := p.Profile().Root.Find("r")
	if r.Visits != 3 {
		t.Fatalf("visits %d, want 3", r.Visits)
	}
	if r.Total != 6*time.Millisecond {
		t.Fatalf("total %v, want 6ms", r.Total)
	}
}

func TestSiblingsKeptSeparate(t *testing.T) {
	p := mustRecord(t, func(p *sim.Proc) {
		parent := p.Phase("parent")
		x := p.Phase("x")
		p.Sleep(time.Millisecond)
		x.End()
		y := p.Phase("y")
		p.Sleep(2 * time.Millisecond)
		y.End()
		parent.End()
	})
	prof := p.Profile()
	parent := prof.Root.Find("parent")
	if len(parent.Children) != 2 {
		t.Fatalf("children %d, want 2", len(parent.Children))
	}
	if prof.Root.Find("x").Total != time.Millisecond || prof.Root.Find("y").Total != 2*time.Millisecond {
		t.Fatal("sibling totals wrong")
	}
}

// Closing a phase that is not the innermost open one is an
// instrumentation bug: it panics, failing the run under the process.
func TestMismatchedEndPanics(t *testing.T) {
	_, err := record(func(p *sim.Proc) {
		a := p.Phase("a")
		p.Phase("b")
		a.End()
	})
	if err == nil || !strings.Contains(err.Error(), `ends phase "a" but its innermost phase is "b"`) {
		t.Fatalf("mismatched End: run error %v, want the innermost-phase panic", err)
	}
}

// Ending a phase a second time after its call path was opened again is an
// instrumentation bug too, though the reopened phase is the innermost one:
// the stale value would book the time since its own, earlier opening.
func TestEndAfterReopenPanics(t *testing.T) {
	_, err := record(func(p *sim.Proc) {
		first := p.Phase("a")
		p.Sleep(time.Millisecond)
		first.End()
		p.Sleep(time.Millisecond)
		p.Phase("a")
		p.Sleep(time.Millisecond)
		first.End()
	})
	if err == nil || !strings.Contains(err.Error(), `ends phase "a" opened at 0s, but it was opened again at 2ms`) {
		t.Fatalf("stale End: run error %v, want the reopened-phase panic", err)
	}
}

func TestProfileWithOpenRegionPanics(t *testing.T) {
	p := mustRecord(t, func(p *sim.Proc) { p.Phase("a") })
	defer func() {
		if recover() == nil {
			t.Fatal("Profile with open region did not panic")
		}
	}()
	p.Profile()
}

// The inert annotator is now a process that keeps no profile. Its nil
// case: no profile table exists for the process at all, yet every front
// opens and closes and Profile still returns an empty tree.
func TestNilAnnotatorIsInert(t *testing.T) {
	e := sim.NewEngine(1)
	p := e.Spawn("p0", func(p *sim.Proc) {
		x := p.Phase("x")
		x.End()
		y := p.Region("test", "y", trace.ClassIdle)
		p.Sleep(time.Millisecond)
		y.End(0, "")
		z := p.Span("test", "z", trace.ClassIdle)
		z.End(0, "")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	prof := p.Profile()
	if prof == nil || prof.Root == nil {
		t.Fatal("a process without a profile must still produce an empty one")
	}
}

// Its zero-value case: a process that never calls KeepProfile records
// nothing. Its phases open and close freely, even out of order, and its
// Profile is empty.
func TestZeroValueAnnotatorInert(t *testing.T) {
	e := sim.NewEngine(1)
	p := e.Spawn("p0", func(p *sim.Proc) {
		x := p.Phase("x")
		y := p.Region("test", "y", trace.ClassIdle)
		p.Sleep(time.Millisecond)
		x.End() // out of order: no profile, no bookkeeping to violate
		y.End(0, "")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	prof := p.Profile()
	if prof == nil || prof.Root == nil {
		t.Fatal("a process without a profile must still produce an empty one")
	}
	if len(prof.Root.Children) != 0 {
		t.Fatalf("unprofiled process recorded regions: %+v", prof.Root.Children)
	}
}

// Regression: TotalOf must not double-count a same-named region nested
// inside another — the inner visit's time is already part of the outer
// node's inclusive total. A retry loop that re-enters "io" inside "io"
// used to inflate TotalOf("io") by the inner time.
func TestTotalOfCountsOutermostOnly(t *testing.T) {
	p := mustRecord(t, func(p *sim.Proc) {
		outer := p.Phase("io")
		p.Sleep(2 * time.Millisecond)
		inner := p.Phase("io") // nested same-named region (e.g. a retry)
		p.Sleep(4 * time.Millisecond)
		inner.End()
		p.Sleep(1 * time.Millisecond)
		outer.End()
	})
	// Outer inclusive total is 7ms and already contains the nested 4ms.
	if got := p.Profile().TotalOf("io"); got != 7*time.Millisecond {
		t.Fatalf("TotalOf(io) = %v, want 7ms (outermost only, no double count)", got)
	}
	// Disjoint occurrences under different parents must still both count.
	p2 := mustRecord(t, func(p *sim.Proc) {
		for _, parent := range []string{"a", "b"} {
			pr := p.Phase(parent)
			io := p.Phase("io")
			p.Sleep(3 * time.Millisecond)
			io.End()
			pr.End()
		}
	})
	if got := p2.Profile().TotalOf("io"); got != 6*time.Millisecond {
		t.Fatalf("TotalOf(io) across paths = %v, want 6ms", got)
	}
}

// A warmed profile table restarts and records a region cycle without
// allocating.
func TestAnnotatorZeroAllocs(t *testing.T) {
	var allocs float64
	var fetch time.Duration
	mustRecord(t, func(p *sim.Proc) {
		cycle := func() {
			p.KeepProfile()
			consume := p.Phase("dyad_consume")
			f := p.Region("dyad", "dyad_fetch", trace.ClassIdle)
			p.Sleep(time.Millisecond)
			f.End(0, "")
			consume.End()
			p.Phase("analytics").End()
		}
		cycle()
		allocs = testing.AllocsPerRun(100, cycle)
		fetch = p.Profile().TotalOf("dyad_fetch")
	})
	if allocs != 0 {
		t.Errorf("warmed KeepProfile and region cycle allocate %.0f objects, want 0", allocs)
	}
	if fetch != time.Millisecond {
		t.Errorf("TotalOf(dyad_fetch) = %v after a cycle, want 1ms", fetch)
	}
}
