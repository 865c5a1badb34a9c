package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10*time.Millisecond {
		t.Fatalf("woke at %v, want 10ms", at)
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("engine now %v, want 10ms", e.Now())
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine(7)
		var order []string
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("p%d", i)
			e.Spawn(name, func(p *Proc) {
				p.Sleep(time.Millisecond) // all wake at the same instant
				order = append(order, p.Name())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order: %v vs %v", a, b)
		}
	}
	// Same-instant events fire in schedule order.
	for i, name := range a {
		if name != fmt.Sprintf("p%d", i) {
			t.Fatalf("order %v not FIFO at same instant", a)
		}
	}
}

func TestZeroSleepYields(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestSignalBroadcastWakesAllWaiters(t *testing.T) {
	e := NewEngine(1)
	var sig Signal
	woke := make(map[string]Time)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("w%d", i)
		e.Spawn(name, func(p *Proc) {
			sig.Wait(p)
			woke[p.Name()] = p.Now()
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		if n := len(sig.waiters); n != 3 {
			t.Errorf("pending %d, want 3", n)
		}
		sig.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for name, at := range woke {
		if at != 5*time.Millisecond {
			t.Fatalf("%s woke at %v, want 5ms", name, at)
		}
	}
}

func TestLatchWaitAfterFireReturnsImmediately(t *testing.T) {
	e := NewEngine(1)
	var l Latch
	var lateWake Time
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		l.Fire()
		l.Fire() // idempotent
	})
	e.Spawn("late", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		l.Wait(p) // already fired: no block
		lateWake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if lateWake != 10*time.Millisecond {
		t.Fatalf("late waiter resumed at %v, want 10ms", lateWake)
	}
	if !l.Fired() {
		t.Fatal("latch should report fired")
	}
}

func TestStrandedProcessesReported(t *testing.T) {
	e := NewEngine(1)
	var sig Signal
	e.Spawn("stuck", func(p *Proc) {
		sig.Wait(p) // never broadcast
		t.Error("stranded process resumed normally")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("want ErrStranded, got nil")
	}
}

func TestProcessPanicSurfacesAsError(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("want panic error, got nil")
	}
}

func TestResourceFIFOAndContention(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "dev", 1)
	var finish []string
	spawnUser := func(name string, startDelay, service time.Duration) {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(startDelay)
			r.Use(p, service)
			finish = append(finish, p.Name())
		})
	}
	// a starts first and holds for 10ms; b and c queue in arrival order.
	spawnUser("a", 0, 10*time.Millisecond)
	spawnUser("b", 1*time.Millisecond, 1*time.Millisecond)
	spawnUser("c", 2*time.Millisecond, 1*time.Millisecond)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish order %v, want %v (FIFO)", finish, want)
		}
	}
	if e.Now() != 12*time.Millisecond {
		t.Fatalf("end time %v, want 12ms (serialized)", e.Now())
	}
}

func TestResourceCapacityAllowsParallelGrants(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "dev", 2)
	done := 0
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			done++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("end %v, want 10ms (parallel grants)", e.Now())
	}
	if done != 2 {
		t.Fatalf("done %d, want 2", done)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "dev", 1)
	e.Spawn("u", func(p *Proc) {
		r.Use(p, 5*time.Millisecond)
		p.Sleep(5 * time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.BusyUnitNanos(); got != int64(5*time.Millisecond) {
		t.Fatalf("busy %d unit-ns, want %d", got, int64(5*time.Millisecond))
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine(1)
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		p.e.Spawn("child", func(c *Proc) {
			c.Sleep(2 * time.Millisecond)
			childAt = c.Now()
		})
		p.Sleep(10 * time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 5*time.Millisecond {
		t.Fatalf("child finished at %v, want 5ms", childAt)
	}
}

// Property: for any random workload of sleeps, the per-process observed
// clock is monotonically non-decreasing and the engine terminates cleanly.
func TestClockMonotonicityProperty(t *testing.T) {
	f := func(seed uint64, nProcsRaw, nStepsRaw uint8) bool {
		nProcs := int(nProcsRaw)%8 + 1
		nSteps := int(nStepsRaw)%20 + 1
		e := NewEngine(seed)
		ok := true
		for i := 0; i < nProcs; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				last := p.Now()
				for s := 0; s < nSteps; s++ {
					p.Sleep(time.Duration(p.Rand().Intn(1000)) * time.Microsecond)
					if p.Now() < last {
						ok = false
					}
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a capacity-1 resource under random contention serializes total
// service: end time >= sum of service times.
func TestResourceSerializationProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%10 + 1
		e := NewEngine(seed)
		r := NewResource(e, "dev", 1)
		var total time.Duration
		for i := 0; i < n; i++ {
			service := time.Duration((i+1)*37) * time.Microsecond
			total += service
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(time.Duration(p.Rand().Intn(100)) * time.Microsecond)
				r.Use(p, service)
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return e.Now() >= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterministicPerSeed(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestJitterMeanRoughlyPreserved(t *testing.T) {
	r := NewRNG(7)
	base := time.Millisecond
	var sum time.Duration
	n := 20000
	for i := 0; i < n; i++ {
		sum += r.Jitter(base, 0.05)
	}
	mean := sum / time.Duration(n)
	if mean < 990*time.Microsecond || mean > 1010*time.Microsecond {
		t.Fatalf("jitter mean %v, want ~1ms", mean)
	}
}

func TestAfterCallbackRuns(t *testing.T) {
	e := NewEngine(1)
	var fired Time
	e.After(4*time.Millisecond, func() { fired = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 4*time.Millisecond {
		t.Fatalf("callback at %v, want 4ms", fired)
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(-time.Second)
	})
	if err := e.Run(); err == nil {
		t.Fatal("negative sleep did not surface as an error")
	}
}

// Regression: the post-abort drain loop must stop at the first failure,
// exactly like the main loop. A panic raised while running a stranded
// process's cleanup events used to leave the drain executing every
// subsequent event against the now-inconsistent engine state. The cleanup
// process that never ran must still be unwound.
func TestDrainStopsOnCleanupFailure(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	var sig Signal
	ranAfter := false
	e.Spawn("stranded", func(p *Proc) {
		defer func() {
			// Abort-time cleanup: schedule follow-up work. The first
			// cleanup process panics; the second must then never run.
			eng := p.e
			eng.Spawn("bad-cleanup", func(c *Proc) { panic("cleanup boom") })
			eng.Spawn("after-cleanup", func(c *Proc) { ranAfter = true })
		}()
		sig.Wait(p) // never broadcast: stranded, aborted at end of run
	})
	err := e.Run()
	if err == nil {
		t.Fatal("want cleanup panic error, got nil")
	}
	if !strings.Contains(err.Error(), "cleanup boom") {
		t.Fatalf("error %q does not surface the cleanup panic", err)
	}
	if ranAfter {
		t.Fatal("drain kept executing events after a cleanup failure")
	}
	assertNoGoroutineLeak(t, before)
}

// A panicking callback fails the run with an event error, whoever popped
// the event: the driver before any process has run, or a process
// dispatching as it parks. Either way it must not be blamed on that
// process, and every process must unwind.
func TestCallbackPanicFailsRun(t *testing.T) {
	cases := []struct {
		name  string
		build func(e *Engine)
		want  string
	}{
		{"before any process", func(e *Engine) {
			e.After(0, func() { panic("boom") })
			e.Spawn("idle", func(p *Proc) { p.Sleep(time.Hour) })
		}, "sim: event at 0s panicked: boom"},
		{"after a process slept", func(e *Engine) {
			e.Spawn("sleeper", func(p *Proc) {
				p.Sleep(time.Millisecond)
				e.After(3*time.Millisecond, func() { panic("boom") })
				p.Sleep(time.Hour)
			})
		}, "sim: event at 4ms panicked: boom"},
		{"wake of finished process", func(e *Engine) {
			done := e.Spawn("done", func(p *Proc) {})
			e.Spawn("waker", func(p *Proc) {
				p.Sleep(time.Millisecond)
				done.Wake()
				p.Sleep(time.Hour)
			})
		}, `sim: event at 1ms: wake of finished process "done"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine(1)
			tc.build(e)
			err := e.Run()
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			assertNoGoroutineLeak(t, before)
		})
	}
}
