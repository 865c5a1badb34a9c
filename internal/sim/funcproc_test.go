package sim

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/critpath"
)

// ticker is a goroutine-free process body that sleeps d forever.
func ticker(d Time) func(p *Proc) {
	var tick func(p *Proc)
	tick = func(p *Proc) { p.SleepThen(d, tick) }
	return tick
}

// checkRetired fails t unless every process of e is retired and the
// engine is reusable.
func checkRetired(t *testing.T, e *Engine) {
	t.Helper()
	if e.live != 0 {
		t.Fatalf("%d processes still live after Run", e.live)
	}
	for _, p := range e.procs {
		if !p.done {
			t.Fatalf("process %q not retired", p.name)
		}
	}
	e.Reset(1) // panics while processes are live
}

// A failed run with goroutine-free processes still live — sleeping,
// queued on a resource, or livelocking the watchdog themselves — returns
// without hanging finish: they have no goroutine to abort, so finish
// retires them in place, unwinds the goroutine processes beside them,
// and leaks nothing.
func TestFuncProcWatchdogAndPanicLeakNothing(t *testing.T) {
	live := func(e *Engine) {
		r := NewResource(e, "dev", 1)
		e.SpawnFunc("holder", func(p *Proc) {
			r.AcquireThen(p, 1, func(p *Proc) { p.SleepThen(time.Hour, func(*Proc) {}) })
		})
		e.SpawnFunc("queued", func(p *Proc) { r.AcquireThen(p, 1, func(*Proc) {}) })
		e.SpawnFunc("ticker", ticker(time.Millisecond))
		e.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
	}
	cases := []struct {
		name  string
		build func(e *Engine)
		ok    func(err error) bool
	}{
		{"watchdog abort", func(e *Engine) {
			e.SetWatchdog(1_000, 0)
			live(e)
		}, func(err error) bool { return errors.Is(err, ErrWatchdog) }},
		{"goroutine-free livelock", func(e *Engine) {
			e.SetWatchdog(1_000, 0)
			live(e)
			e.SpawnFunc("livelock", ticker(0))
		}, func(err error) bool { return errors.Is(err, ErrWatchdog) }},
		{"process panic", func(e *Engine) {
			live(e)
			e.Spawn("bad", func(p *Proc) {
				p.Sleep(5 * time.Millisecond)
				panic("boom")
			})
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), `process "bad" panicked`) }},
		{"goroutine-free panic", func(e *Engine) {
			live(e)
			e.SpawnFunc("bad", func(p *Proc) {
				p.SleepThen(5*time.Millisecond, func(*Proc) { panic("boom") })
			})
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), `process "bad" panicked`) }},
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
				checkRetired(t, e)
			}
			assertNoGoroutineLeak(t, before)
		})
	}
}

// A goroutine-free process still queued on a resource when the queue
// drains is stranded like a blocked goroutine process, and listed in
// spawn order beside one.
func TestFuncProcStrandedOnResource(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "dev", 1)
	e.SpawnFunc("holder", func(p *Proc) {
		r.AcquireThen(p, 1, func(*Proc) {}) // ends holding the unit
	})
	e.SpawnFunc("fn-waiter", func(p *Proc) {
		r.AcquireThen(p, 1, func(*Proc) { t.Error("stranded continuation ran") })
	})
	e.Spawn("go-waiter", func(p *Proc) { r.Acquire(p, 1) })
	err := e.Run()
	if !errors.Is(err, ErrStranded) {
		t.Fatalf("err = %v, want ErrStranded", err)
	}
	if want := "[fn-waiter go-waiter]"; !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("err = %v, want stranded list %s", err, want)
	}
	checkRetired(t, e)
}

// A panic in a continuation fails the run under the process's name, keeps
// an error value's chain, and so does blocking from a continuation.
func TestFuncProcPanicNamesProcess(t *testing.T) {
	sentinel := errors.New("device gone")
	cases := []struct {
		name string
		fn   func(r *Resource) func(p *Proc)
		want string
	}{
		{"first continuation", func(*Resource) func(p *Proc) {
			return func(*Proc) { panic("boom") }
		}, `sim: process "fn" panicked: boom`},
		{"after a sleep", func(*Resource) func(p *Proc) {
			return func(p *Proc) { p.SleepThen(time.Millisecond, func(*Proc) { panic(sentinel) }) }
		}, `sim: process "fn" failed: device gone`},
		{"after a queued grant", func(r *Resource) func(p *Proc) {
			return func(p *Proc) { r.AcquireThen(p, 1, func(*Proc) { panic("boom") }) }
		}, `sim: process "fn" panicked: boom`},
		{"blocking call", func(*Resource) func(p *Proc) {
			return func(p *Proc) { p.Sleep(time.Millisecond) }
		}, `sim: process "fn" panicked: sim: goroutine-free process "fn" cannot block`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			r := NewResource(e, "dev", 1)
			e.Spawn("holder", func(p *Proc) { r.Use(p, 2*time.Millisecond) })
			e.SpawnFunc("fn", tc.fn(r))
			err := e.Run()
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v, want %s", err, tc.want)
			}
			if strings.Contains(tc.want, "failed") && !errors.Is(err, sentinel) {
				t.Fatalf("err = %v lost the panic value's chain", err)
			}
			checkRetired(t, e)
		})
	}
}

// A goroutine-free process is a process in full: it takes the random
// stream of its spawn slot, so swapping Spawn for SpawnFunc shifts no
// other process's stream, and its own draws, sleeps and end time match.
func TestFuncProcKeepsSpawnSlotStream(t *testing.T) {
	run := func(funcFirst bool) (first, second []uint64, end Time) {
		e := NewEngine(9)
		if funcFirst {
			e.SpawnFunc("a", func(p *Proc) {
				first = append(first, p.Rand().Uint64())
				p.SleepThen(3*time.Millisecond, func(p *Proc) { first = append(first, p.Rand().Uint64()) })
			})
		} else {
			e.Spawn("a", func(p *Proc) {
				first = append(first, p.Rand().Uint64())
				p.Sleep(3 * time.Millisecond)
				first = append(first, p.Rand().Uint64())
			})
		}
		e.Spawn("b", func(p *Proc) { second = append(second, p.Rand().Uint64()) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return first, second, e.Now()
	}
	f1, s1, end1 := run(true)
	f2, s2, end2 := run(false)
	if !reflect.DeepEqual(f1, f2) || !reflect.DeepEqual(s1, s2) || end1 != end2 {
		t.Fatalf("goroutine-free run (%v %v %v) differs from goroutine run (%v %v %v)", f1, s1, end1, f2, s2, end2)
	}
}

// A goroutine-free process records the same critical-path graph as the
// goroutine process it stands in for: its spawn and end, the wait it
// spends queued on a resource, and the release edges in both directions,
// each attributed to the process whose continuation issued it.
func TestCritFuncProcMatchesGoroutineProc(t *testing.T) {
	run := func(goroutineFree bool) (*critpath.Graph, int64) {
		e := NewEngine(1)
		cp := critpath.NewRecorder()
		e.SetCritRecorder(cp)
		r := NewResource(e, "dev", 1)
		e.Spawn("worker", func(p *Proc) {
			for i := 0; i < 3; i++ {
				r.Use(p, 2*time.Millisecond)
			}
		})
		if goroutineFree {
			n := 0
			var queue, hold, release func(p *Proc)
			queue = func(p *Proc) { r.AcquireThen(p, 1, hold) }
			hold = func(p *Proc) { p.SleepThen(time.Millisecond, release) }
			release = func(p *Proc) {
				r.Release(1)
				if n++; n < 3 {
					queue(p)
				}
			}
			e.SpawnFunc("rival", queue)
		} else {
			e.Spawn("rival", func(p *Proc) {
				for i := 0; i < 3; i++ {
					r.Use(p, time.Millisecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return cp.Finish(e.Now()), e.Events()
	}
	got, gotEvents := run(true)
	want, wantEvents := run(false)
	if gotEvents != wantEvents {
		t.Errorf("events: %d, goroutine process %d", gotEvents, wantEvents)
	}
	if len(want.Edges) < 4 {
		t.Fatalf("weak scenario: %d release edges", len(want.Edges))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("graph differs:\n got %+v\nwant %+v", got, want)
	}
}

// YieldThen books what SleepThen(0, fn) would have fired: the same event
// count, watermark and firing event at every step, and the same watchdog
// trip when the zero-length hold is the event past the budget. A process
// spawned after the chain and ticking every 250ns puts an event due at
// some of its yields, where YieldThen must queue instead: its spawn waits
// in the same-instant lane at the first, and at 500ns its tick, scheduled
// after the chain's sleep, waits in the ladder.
func TestYieldThenBooksTheSleepItStandsFor(t *testing.T) {
	type mark struct {
		at               Time
		events, seq      int64
		firingBeforeSeq  bool
		firingBeforeLast bool
	}
	run := func(yield bool, maxEvents int64) ([]mark, error) {
		e := NewEngine(1)
		e.SetWatchdog(maxEvents, 0)
		var marks []mark
		steps := 0
		var step func(p *Proc)
		step = func(p *Proc) {
			last := e.Watermark()
			for {
				marks = append(marks, mark{e.Now(), e.Events(), e.Watermark(),
					e.FiringBefore(last), e.FiringBefore(last - 1)})
				if steps++; steps == 12 {
					return
				}
				if steps%3 == 0 {
					p.SleepThen(500*time.Nanosecond, step)
					return
				}
				if !yield {
					p.SleepThen(0, step)
					return
				}
				if !p.YieldThen(step) {
					return
				}
				last = e.Watermark()
			}
		}
		e.SpawnFunc("chain", step)
		e.SpawnFunc("ticker", func(p *Proc) {
			n := 0
			var tick func(p *Proc)
			tick = func(p *Proc) {
				if n++; n < 8 {
					p.SleepThen(250*time.Nanosecond, tick)
				}
			}
			tick(p)
		})
		err := e.Run()
		return marks, err
	}
	for _, budget := range []int64{0, 6, 9} {
		want, wantErr := run(false, budget)
		got, gotErr := run(true, budget)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("budget %d: YieldThen steps\n%v\nSleepThen(0) steps\n%v", budget, got, want)
		}
		if errors.Is(gotErr, ErrWatchdog) != errors.Is(wantErr, ErrWatchdog) || (budget == 0) != (gotErr == nil) {
			t.Errorf("budget %d: YieldThen run ends %v, SleepThen(0) run %v", budget, gotErr, wantErr)
		}
	}
}
