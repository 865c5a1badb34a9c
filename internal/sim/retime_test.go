package sim

import (
	"reflect"
	"strings"
	"testing"
	"time"
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

// queueLog records the queue length each time its resource's watcher is
// told.
type queueLog struct {
	r      *Resource
	queued []int
}

func (l *queueLog) Queued() { l.queued = append(l.queued, l.r.QueueLen()) }

// The watcher is told once for each acquire that queues, and never for a
// grant.
func TestOnQueueFiresPerWaiter(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	l := &queueLog{r: r}
	r.OnQueue(l)
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) { r.Use(p, time.Millisecond) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(l.queued) != 2 || l.queued[0] != 1 || l.queued[1] != 2 {
		t.Errorf("watcher saw queue lengths %v, want [1 2]", l.queued)
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
