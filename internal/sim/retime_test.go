package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/critpath"
)

// retimed runs one process that sleeps for 10ms while a callback at 1ms
// moves its wake-up to 2ms, with arm applied to the engine first. The
// 10ms delivery the retime replaced stays queued until the run's end.
func retimed(t *testing.T, arm func(e *Engine)) (*Engine, Time) {
	t.Helper()
	e := NewEngine(1)
	arm(e)
	var woke Time
	p := e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		woke = p.Now()
	})
	e.After(time.Millisecond, func() { p.Retime(2 * time.Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e, woke
}

// A retimed sleep wakes at its new time, and the delivery it replaced is
// no event: Events does not count it, and the clock never reaches it.
func TestRetimeDropsTheMovedDelivery(t *testing.T) {
	e, woke := retimed(t, func(*Engine) {})
	if woke != 2*time.Millisecond {
		t.Errorf("woke at %v, want 2ms", woke)
	}
	// The spawn delivery, the callback and the retimed wake-up.
	if got := e.Events(); got != 3 {
		t.Errorf("Events() = %d, want 3", got)
	}
	if e.Now() != 2*time.Millisecond {
		t.Errorf("run ended at %v, want 2ms: the dropped delivery moved the clock", e.Now())
	}
}

// The dropped delivery takes no sample: the sampler stops with the last
// real event.
func TestRetimedDeliveryTakesNoSample(t *testing.T) {
	var at []Time
	retimed(t, func(e *Engine) {
		e.SetSampler(time.Millisecond, func(ts Time) { at = append(at, ts) })
	})
	if len(at) != 2 || at[0] != time.Millisecond || at[1] != 2*time.Millisecond {
		t.Errorf("sampled %v, want [1ms 2ms]", at)
	}
}

// The dropped delivery cannot trip the watchdog, though it lies past both
// limits: it is neither a fourth event nor due before 5ms.
func TestRetimedDeliveryPassesTheWatchdog(t *testing.T) {
	e, _ := retimed(t, func(e *Engine) { e.SetWatchdog(3, 5*time.Millisecond) })
	if got := e.Events(); got != 3 {
		t.Errorf("Events() = %d, want 3", got)
	}
}

// A continuation can be retimed too, more than once, and earlier or
// later; only the last delivery runs it.
func TestRetimeContinuation(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	p := e.SpawnFunc("chain", func(p *Proc) {
		p.SleepThen(5*time.Millisecond, func(p *Proc) { ran = append(ran, p.Now()) })
	})
	e.After(time.Millisecond, func() { p.Retime(3 * time.Millisecond) })
	e.After(2*time.Millisecond, func() { p.Retime(4 * time.Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != 4*time.Millisecond {
		t.Errorf("continuation ran at %v, want once at 4ms", ran)
	}
	if got := e.Events(); got != 4 {
		t.Errorf("Events() = %d, want 4", got)
	}
}

// Retime is for a sleeping process only: one that is blocked, running or
// finished, or a time in the past, panics.
func TestRetimeMisuse(t *testing.T) {
	cases := map[string]func(e *Engine){
		"blocked": func(e *Engine) {
			p := e.Spawn("blocked", func(p *Proc) { p.Block() })
			e.After(time.Millisecond, func() { p.Retime(2 * time.Millisecond) })
		},
		"running": func(e *Engine) {
			e.Spawn("self", func(p *Proc) { p.Retime(time.Millisecond) })
		},
		"finished": func(e *Engine) {
			p := e.Spawn("done", func(*Proc) {})
			e.After(time.Millisecond, func() { p.Retime(2 * time.Millisecond) })
		},
		"past": func(e *Engine) {
			p := e.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
			e.After(2*time.Millisecond, func() { p.Retime(time.Millisecond) })
		},
	}
	for name, build := range cases {
		e := NewEngine(1)
		build(e)
		if err := e.Run(); err == nil || !strings.Contains(err.Error(), "retime") {
			t.Errorf("%s: err = %v, want a retime panic", name, err)
		}
	}
}

// FiringBefore places the event being run against a watermark: events
// scheduled before it was taken are before it, the rest after.
func TestFiringBefore(t *testing.T) {
	e := NewEngine(1)
	var mark int64
	got := map[string]bool{}
	e.After(time.Millisecond, func() { got["early"] = e.FiringBefore(mark) })
	e.Spawn("marker", func(p *Proc) {
		mark = e.Watermark()
		e.After(time.Millisecond, func() { got["late"] = e.FiringBefore(mark) })
		got["self"] = e.FiringBefore(mark)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !got["early"] || got["late"] || !got["self"] {
		t.Errorf("FiringBefore: %v, want early and self before, late after", got)
	}
}

// ScheduledAfter places the delivery being run by the instant it was
// scheduled at: a sleep, a retimed sleep, a wake and a zero-length yield
// each report their own instant, and callbacks and the sampler count as
// scheduled before any instant.
func TestScheduledAfter(t *testing.T) {
	e := NewEngine(1)
	const ms = time.Millisecond
	got := map[string][2]bool{}
	probe := func(name string, t Time) { got[name] = [2]bool{e.ScheduledAfter(t - 1), e.ScheduledAfter(t)} }
	var sleeper *Proc
	sleeper = e.SpawnFunc("sleeper", func(p *Proc) {
		p.SleepThen(10*ms, func(p *Proc) {
			probe("retimed", 2*ms)
			p.SleepThen(ms, func(p *Proc) { probe("sleep", 5*ms) })
		})
	})
	e.After(2*ms, func() {
		probe("callback", 0)
		sleeper.Retime(5 * ms)
	})
	e.Spawn("waker", func(p *Proc) {
		var l Latch
		e.Spawn("waiter", func(q *Proc) {
			l.Wait(q)
			probe("wake", 7*ms)
			q.Inline(func(q *Proc) {
				if q.YieldThen(func(*Proc) {}) {
					probe("yield", 7*ms)
				}
			})
		})
		p.Sleep(7 * ms)
		l.Fire()
	})
	e.SetSampler(4*ms, func(Time) {
		if _, ok := got["sampler"]; !ok {
			probe("sampler", 0)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[string][2]bool{
		"retimed": {true, false}, "sleep": {true, false}, "wake": {true, false}, "yield": {true, false},
		"callback": {false, false}, "sampler": {false, false},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ScheduledAfter(instant-1, instant): %v, want %v", got, want)
	}
}

// Quiet reports whether another event is due at the current instant.
func TestQuiet(t *testing.T) {
	e := NewEngine(1)
	var got []bool
	e.Spawn("a", func(p *Proc) {
		got = append(got, e.Quiet()) // b's first delivery is due now
		p.Sleep(time.Millisecond)
		got = append(got, e.Quiet())
	})
	e.Spawn("b", func(p *Proc) { p.Sleep(2 * time.Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []bool{false, true}) {
		t.Errorf("Quiet: %v, want [false true]", got)
	}
}

// Preempt runs a goroutine-free process's continuation due now at once,
// as that process, ahead of the code running: its release edges are its
// own, it counts as the event it stands in for, and the delivery it
// replaces is dropped.
func TestPreempt(t *testing.T) {
	e := NewEngine(1)
	cp := critpath.NewRecorder()
	e.SetCritRecorder(cp)
	r := NewResource(e, "r", 1)
	var order []string
	var holder *Proc
	holder = e.SpawnFunc("holder", func(p *Proc) {
		r.AcquireThen(p, 1, func(p *Proc) {
			p.SleepThen(time.Millisecond, func(p *Proc) {
				order = append(order, fmt.Sprintf("release@%v", p.Now()))
				r.Release(1)
			})
		})
	})
	e.Spawn("user", func(p *Proc) {
		p.Sleep(time.Microsecond)
		r.Acquire(p, 1) // queues behind the holder
		order = append(order, fmt.Sprintf("user@%v", p.Now()))
		r.Release(1)
	})
	e.After(time.Millisecond, func() {
		order = append(order, "callback")
		holder.Preempt()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"callback", "release@1ms", "user@1ms"}; !reflect.DeepEqual(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
	// Spawns, the holder's and the user's sleeps, the callback, the
	// preempted release and the user's wake-up.
	if e.Events() != 6 {
		t.Errorf("%d events, want 6", e.Events())
	}
	g := cp.Finish(e.Now())
	if len(g.Edges) != 1 || g.Edges[0].From != holder.idx || g.Edges[0].At != time.Millisecond {
		t.Errorf("release edges %+v, want one from the holder at 1ms", g.Edges)
	}
}

// A watcher books holds off the event queue: HoldFrom and ReleaseAt put
// them on the busy integral as of their instants, and refuse an instant
// before the last change or after now, or a hold with someone queued.
func TestHoldFromReleaseAt(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 2)
	var busy []int64
	e.After(10*time.Millisecond, func() {
		r.HoldFrom(1, 2*time.Millisecond)
		r.ReleaseAt(1, 5*time.Millisecond)
		r.HoldFrom(2, 6*time.Millisecond)
		busy = append(busy, r.BusyUnitNanos())
		r.ReleaseAt(2, 10*time.Millisecond)
	})
	e.After(12*time.Millisecond, func() { busy = append(busy, r.BusyUnitNanos()) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int64{11e6, 11e6}; !reflect.DeepEqual(busy, want) {
		t.Errorf("busy integral %v, want %v", busy, want)
	}
	for name, bad := range map[string]func(r *Resource){
		"before last change": func(r *Resource) { r.BusyUnitNanos(); r.HoldFrom(1, 0) },
		"after now":          func(r *Resource) { r.HoldFrom(1, 2*time.Millisecond) },
		"release unheld":     func(r *Resource) { r.ReleaseAt(1, time.Millisecond) },
		"over capacity":      func(r *Resource) { r.HoldFrom(3, time.Millisecond) },
	} {
		e := NewEngine(1)
		r := NewResource(e, "r", 2)
		e.After(time.Millisecond, func() { bad(r) })
		if err := e.Run(); err == nil || !strings.Contains(err.Error(), "booked hold") {
			t.Errorf("%s: err = %v, want a booked-hold panic", name, err)
		}
	}
}

// touchLog records each call of its resource's watcher: whether it came
// before a grant decision, and the queue length then.
type touchLog struct {
	r       *Resource
	touches []string
}

func (l *touchLog) Touch(acquire bool) {
	l.touches = append(l.touches, fmt.Sprintf("%v/%d", acquire, len(l.r.queue)-int(l.r.qhead)))
}

// The watcher is told before each grant decision, whether it grants or
// queues, and before each read; never on a release.
func TestWatcherToldBeforeGrantsAndReads(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	l := &touchLog{r: r}
	r.Watch(l)
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) { r.Use(p, time.Millisecond) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	_, _, _ = r.InUse(), r.QueueLen(), r.BusyUnitNanos()
	want := []string{"true/0", "true/0", "true/1", "false/0", "false/0", "false/0"}
	if !reflect.DeepEqual(l.touches, want) {
		t.Errorf("watcher told %v, want %v", l.touches, want)
	}
}

// Each engine keeps its own free list of each kind.
func TestFreeListPerEngine(t *testing.T) {
	type a struct{ x int }
	type b struct{ y int }
	la, lb := NewFreeList[a](), NewFreeList[b]()
	e1, e2 := NewEngine(1), NewEngine(2)
	if la.Get(e1) != nil {
		t.Fatal("a fresh engine's list is not empty")
	}
	x := &a{1}
	la.Put(e1, x)
	lb.Put(e1, &b{2})
	if la.Get(e2) != nil {
		t.Error("another engine's list saw the state")
	}
	if got := la.Get(e1); got != x {
		t.Errorf("Get = %v, want the state put", got)
	}
	if la.Get(e1) != nil {
		t.Error("a state was handed out twice")
	}
	if got := lb.Get(e1); got == nil || got.y != 2 {
		t.Errorf("the other kind's list: %v", got)
	}
}

// A table lent for a run comes back at the engine's next Reset, and not
// before: a run of the same shape gets each table back in the role it
// had, emptied, with a new one only for a table it lends beyond those.
// Another engine lends its own.
func TestLentTablesComeBackAtReset(t *testing.T) {
	l := NewFreeList[map[string]int]()
	id := func(m map[string]int) uintptr { return reflect.ValueOf(m).Pointer() }
	e := NewEngine(1)
	a, b := LendMap(l, e), LendMap(l, e)
	if id(a) == id(b) {
		t.Fatal("one run was lent one table twice")
	}
	a["x"], b["y"], b["z"] = 1, 2, 3
	if other := LendMap(l, NewEngine(2)); id(other) == id(a) || id(other) == id(b) {
		t.Error("another engine lent this engine's table")
	}
	e.Reset(2)
	a2, b2, c := LendMap(l, e), LendMap(l, e), LendMap(l, e)
	if id(a2) != id(a) || id(b2) != id(b) {
		t.Error("a reset engine lent its tables in other roles")
	}
	if len(a2) != 0 || len(b2) != 0 || len(c) != 0 {
		t.Errorf("lent tables hold %d, %d and %d entries, want none", len(a2), len(b2), len(c))
	}
	if id(c) == id(a) || id(c) == id(b) {
		t.Error("a third table in one run was one already lent")
	}
}
