package sim

import (
	"testing"
	"time"

	"repro/internal/critpath"
)

// Wake attributes a release edge to the proc whose turn it is. A callback
// is the kernel's even when it runs on a process goroutine — here the
// 1ms timer is popped by sleeper's own dispatch loop as it yields — so its
// wake must record noProc, while a wake issued by a process records that
// process.
func TestCritReleaseAttribution(t *testing.T) {
	e := NewEngine(1)
	cp := critpath.NewRecorder()
	e.SetCritRecorder(cp)
	var waiter, relay *Proc
	waiter = e.Spawn("waiter", func(p *Proc) { p.Block() })
	relay = e.Spawn("relay", func(p *Proc) {
		p.Block()
		waiter.Wake()
	})
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(2 * time.Millisecond) })
	e.After(time.Millisecond, func() { relay.Wake() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	g := cp.Finish(e.Now())
	got := g.Edges
	want := []critpath.Edge{
		{From: noProc, At: time.Millisecond},
		{From: relay.idx, At: time.Millisecond},
	}
	if len(got) != len(want) {
		t.Fatalf("edges %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edges %v, want %v", got, want)
		}
	}
	// Each edge is bound to the wait its target closed: the timer woke
	// the relay, and the relay the waiter.
	for i, to := range []*Proc{relay, waiter} {
		segs := g.Procs[to.idx].Segments
		if w := segs[0]; w.Kind != critpath.Wait || w.Edge != int32(i) {
			t.Errorf("%s's first segment %+v, want a wait released by edge %d", to.name, w, i)
		}
	}
}
