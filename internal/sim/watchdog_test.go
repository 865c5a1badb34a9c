package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// A process that re-schedules itself forever at the same instant is the
// canonical livelock: the queue never drains and virtual time never moves.
// The event watchdog must convert it into ErrWatchdog instead of spinning.
func TestWatchdogAbortsEventLivelock(t *testing.T) {
	e := NewEngine(1)
	e.SetWatchdog(10_000, 0)
	e.Spawn("livelock", func(p *Proc) {
		for {
			p.Sleep(0)
		}
	})
	err := e.Run()
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
}

// A retry loop that always re-arms a future timer livelocks in virtual time
// instead of event count. The time watchdog must catch it.
func TestWatchdogAbortsVirtualTimeRunaway(t *testing.T) {
	e := NewEngine(1)
	e.SetWatchdog(0, 50*time.Millisecond)
	e.Spawn("retry-forever", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
	err := e.Run()
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
	if e.Now() > 60*time.Millisecond {
		t.Fatalf("run advanced to %v, well past the %v limit", e.Now(), 50*time.Millisecond)
	}
}

// Every way a run can end must unwind every process goroutine: a watchdog
// abort strands well-behaved sleepers (their delivery events die with the
// queue), a failure strands whoever was not running, and ErrStranded
// leaves blocked processes parked. After each Run the goroutine count must
// return to its baseline.
func TestWatchdogAbortLeaksNoGoroutines(t *testing.T) {
	sleepers := func(e *Engine) {
		for j := 0; j < 8; j++ {
			e.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
		}
	}
	cases := []struct {
		name  string
		build func(e *Engine)
		ok    func(err error) bool
	}{
		{"clean finish", func(e *Engine) {
			sleepers(e)
		}, func(err error) bool { return err == nil }},
		{"stranded", func(e *Engine) {
			sleepers(e)
			var sig Signal
			for j := 0; j < 4; j++ {
				e.Spawn("waiter", func(p *Proc) { sig.Wait(p) })
			}
		}, func(err error) bool { return errors.Is(err, ErrStranded) }},
		{"process panic", func(e *Engine) {
			sleepers(e)
			e.Spawn("bad", func(p *Proc) {
				p.Sleep(time.Millisecond)
				panic("boom")
			})
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), `process "bad" panicked`) }},
		{"callback panic", func(e *Engine) {
			sleepers(e)
			e.After(time.Millisecond, func() { panic("boom") })
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "event at 1ms panicked") }},
		{"watchdog abort", func(e *Engine) {
			e.SetWatchdog(1_000, 0)
			sleepers(e)
			e.Spawn("livelock", func(p *Proc) {
				for {
					p.Sleep(0)
				}
			})
		}, func(err error) bool { return errors.Is(err, ErrWatchdog) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 10; i++ {
				e := NewEngine(uint64(i))
				tc.build(e)
				if err := e.Run(); !tc.ok(err) {
					t.Fatalf("iteration %d: unexpected err = %v", i, err)
				}
			}
			assertNoGoroutineLeak(t, before)
		})
	}
}

// assertNoGoroutineLeak fails t unless the goroutine count settles back to
// before. Unwound procs exit synchronously in Run, but give the runtime a
// moment to retire them before counting.
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d: runs leak", before, after)
	}
}

// Below its limits the watchdog must be invisible: same timeline, no error.
func TestWatchdogInertUnderLimits(t *testing.T) {
	run := func(armed bool) (Time, error) {
		e := NewEngine(7)
		if armed {
			e.SetWatchdog(1_000_000, time.Hour)
		}
		e.Spawn("worker", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(time.Millisecond)
			}
		})
		err := e.Run()
		return e.Now(), err
	}
	plainEnd, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	armedEnd, err := run(true)
	if err != nil {
		t.Fatalf("armed run failed: %v", err)
	}
	if plainEnd != armedEnd {
		t.Fatalf("armed watchdog changed the timeline: %v vs %v", armedEnd, plainEnd)
	}
}

func TestSetWatchdogRejectsNegativeLimits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative watchdog limit accepted")
		}
	}()
	NewEngine(1).SetWatchdog(-1, 0)
}
