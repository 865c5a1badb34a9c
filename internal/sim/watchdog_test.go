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

// A Proc is lent by its engine (newProc), so a run after a watchdog kill
// gets back the Procs the killed run left in every state a process can be
// cut down in: retimed (a stale watermark), parked in an Inline chain (a
// continuation and the inline flag), blocked (waiting), a goroutine-free
// process with its continuation pending, and all of them aborted and done.
// Each must come back as a fresh engine would make it: nothing but its
// name, slot and random stream, which derives from the new seed.
func TestLentProcStartsClean(t *testing.T) {
	names := []string{"sleeper", "retimer", "inline", "blocked", "func", "livelock"}
	spawnAll := func(e *Engine, run bool) {
		var sleeper *Proc
		for _, name := range names {
			switch {
			case !run:
				e.Spawn(name, func(p *Proc) {})
			case name == "sleeper":
				sleeper = e.Spawn(name, func(p *Proc) { p.Sleep(time.Hour) })
			case name == "retimer":
				e.Spawn(name, func(p *Proc) { sleeper.Retime(time.Minute) })
			case name == "inline":
				e.Spawn(name, func(p *Proc) {
					p.Inline(func(p *Proc) { p.SleepThen(time.Hour, func(p *Proc) {}) })
				})
			case name == "blocked":
				e.Spawn(name, func(p *Proc) { p.Block() })
			case name == "func":
				e.SpawnFunc(name, func(p *Proc) { p.SleepThen(time.Hour, func(p *Proc) {}) })
			default:
				e.Spawn(name, func(p *Proc) {
					for {
						p.Sleep(time.Microsecond)
					}
				})
			}
		}
	}
	e := NewEngine(1)
	e.Retain()
	defer e.Close()
	spawnAll(e, true)
	e.SetWatchdog(1000, 0)
	if err := e.Run(); !errors.Is(err, ErrWatchdog) {
		t.Fatalf("first run: err = %v, want ErrWatchdog", err)
	}
	killed := map[*Proc]bool{}
	for _, p := range e.Procs() {
		if !p.done || p.aborted != (p.name != "retimer") {
			t.Fatalf("%s: killed run left it done=%v aborted=%v", p.name, p.done, p.aborted)
		}
		killed[p] = true
	}
	// The states the killed run must leave, or the case tests nothing.
	procs := e.Procs()
	if procs[0].stale == 0 || procs[2].cont == nil || !procs[2].inline || !procs[3].waiting || procs[4].cont == nil {
		t.Fatalf("killed run left sleeper stale=%d, inline cont=%v inline=%v, blocked waiting=%v, func cont=%v",
			procs[0].stale, procs[2].cont != nil, procs[2].inline, procs[3].waiting, procs[4].cont != nil)
	}

	e.Reset(2)
	spawnAll(e, false)
	fresh := NewEngine(2)
	spawnAll(fresh, false)
	for i, p := range e.Procs() {
		want := fresh.Procs()[i]
		if !killed[p] {
			t.Errorf("%s: spawned on a new Proc, not on one the killed run left", p.name)
		}
		if p.e != e || p.name != want.name || p.idx != want.idx || p.rng != want.rng ||
			p.stale != 0 || p.cont != nil || p.inline || p.done || p.waiting || p.aborted ||
			(p.co == nil) != (want.co == nil) {
			t.Errorf("%s: lent Proc starts as %+v, want %+v", p.name, *p, *want)
		}
	}
	for _, eng := range []*Engine{e, fresh} {
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
