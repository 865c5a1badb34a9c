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

// chainUse is Resource.Use as an Inline chain: queue (stepping through an
// immediate grant), hold for d, release. Its events are Use's one for one.
func chainUse(p *Proc, r *Resource, d Time) {
	release := func(*Proc) { r.Release(1) }
	hold := func(p *Proc) { p.SleepThen(d, release) }
	p.Inline(func(p *Proc) {
		if r.TryAcquireThen(p, 1, hold) {
			hold(p)
		}
	})
}

// A panicking continuation fails the run under its owner's name, wherever
// it runs: the first step on the owner's own goroutine, a later step on
// the owner's goroutine, or a step another process's goroutine runs for
// it. The owner stays parked for finish, which unwinds it with everyone
// else, so nothing leaks and the engine is reusable.
func TestInlinePanicLeakNothing(t *testing.T) {
	sentinel := errors.New("link gone")
	cases := []struct {
		name string
		body func(r *Resource) func(p *Proc)
		want string
	}{
		{"first step", func(*Resource) func(p *Proc) {
			return func(p *Proc) { p.Inline(func(*Proc) { panic("boom") }) }
		}, `sim: process "chain" panicked: boom`},
		{"own goroutine", func(*Resource) func(p *Proc) {
			return func(p *Proc) {
				p.Inline(func(p *Proc) { p.SleepThen(time.Millisecond, func(*Proc) { panic(sentinel) }) })
			}
		}, `sim: process "chain" failed: link gone`},
		{"other goroutine", func(r *Resource) func(p *Proc) {
			// The grant comes from the holder's Release, so the holder's
			// goroutine runs the panicking step.
			return func(p *Proc) {
				p.Sleep(time.Microsecond)
				p.Inline(func(p *Proc) { r.AcquireThen(p, 1, func(*Proc) { panic("boom") }) })
			}
		}, `sim: process "chain" panicked: boom`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 10; i++ {
				e := NewEngine(uint64(i))
				r := NewResource(e, "dev", 1)
				e.Spawn("holder", func(p *Proc) {
					r.Use(p, 2*time.Millisecond)
					p.Sleep(time.Hour)
				})
				e.Spawn("chain", tc.body(r))
				e.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
				err := e.Run()
				if err == nil || err.Error() != tc.want {
					t.Fatalf("iteration %d: err = %v, want %s", i, err, tc.want)
				}
				if strings.Contains(tc.want, "failed") && !errors.Is(err, sentinel) {
					t.Fatalf("err = %v lost the panic value's chain", err)
				}
				checkRetired(t, e)
			}
			assertNoGoroutineLeak(t, before)
		})
	}
}

// A watchdog trip while a process is parked mid-chain — its next step a
// pending delivery, or its chain itself livelocking — unwinds the parked
// goroutine like any sleeping process.
func TestInlineWatchdogUnwindsParkedChain(t *testing.T) {
	cases := []struct {
		name  string
		chain func(p *Proc)
	}{
		{"parked on a sleep", func(p *Proc) {
			p.Inline(func(p *Proc) { p.SleepThen(time.Hour, func(*Proc) { t.Error("chain resumed past the watchdog") }) })
		}},
		{"livelocking chain", func(p *Proc) {
			var spin func(p *Proc)
			spin = func(p *Proc) { p.SleepThen(0, spin) }
			p.Inline(spin)
			t.Error("livelocked chain returned")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 10; i++ {
				e := NewEngine(uint64(i))
				e.SetWatchdog(1_000, 0)
				e.Spawn("chain", tc.chain)
				e.SpawnFunc("ticker", ticker(time.Millisecond))
				e.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
				if err := e.Run(); !errors.Is(err, ErrWatchdog) {
					t.Fatalf("iteration %d: err = %v, want ErrWatchdog", i, err)
				}
				checkRetired(t, e)
			}
			assertNoGoroutineLeak(t, before)
		})
	}
}

// A chain queued in TryAcquireThen that is never granted strands its
// owner like a blocked Acquire: listed by name in spawn order, then
// unwound, its continuation never run.
func TestInlineStrandedInTryAcquireThen(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	r := NewResource(e, "dev", 1)
	e.SpawnFunc("holder", func(p *Proc) {
		r.AcquireThen(p, 1, func(*Proc) {}) // ends holding the unit
	})
	e.Spawn("chain", func(p *Proc) {
		p.Inline(func(p *Proc) {
			if r.TryAcquireThen(p, 1, func(*Proc) { t.Error("stranded continuation ran") }) {
				t.Error("granted a held unit")
			}
		})
		t.Error("stranded chain returned")
	})
	e.Spawn("go-waiter", func(p *Proc) { r.Acquire(p, 1) })
	err := e.Run()
	if !errors.Is(err, ErrStranded) {
		t.Fatalf("err = %v, want ErrStranded", err)
	}
	if want := "[chain go-waiter]"; !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("err = %v, want stranded list %s", err, want)
	}
	checkRetired(t, e)
	assertNoGoroutineLeak(t, before)
}

// Inline is for goroutine processes, one chain at a time, and a chain's
// steps must not block: each misuse panics, failing the run under the
// process's name.
func TestInlineMisusePanics(t *testing.T) {
	cases := []struct {
		name  string
		spawn func(e *Engine)
		want  string
	}{
		{"nested", func(e *Engine) {
			e.Spawn("p", func(p *Proc) {
				p.Inline(func(p *Proc) { p.Inline(func(*Proc) {}) })
			})
		}, `sim: process "p" panicked: sim: nested Inline in process "p"`},
		{"nested in a later step", func(e *Engine) {
			e.Spawn("p", func(p *Proc) {
				p.Inline(func(p *Proc) { p.SleepThen(time.Millisecond, func(p *Proc) { p.Inline(func(*Proc) {}) }) })
			})
		}, `sim: process "p" panicked: sim: nested Inline in process "p"`},
		{"goroutine-free process", func(e *Engine) {
			e.SpawnFunc("p", func(p *Proc) { p.Inline(func(*Proc) {}) })
		}, `sim: process "p" panicked: sim: Inline on goroutine-free process "p"`},
		{"blocking step", func(e *Engine) {
			e.Spawn("p", func(p *Proc) {
				p.Inline(func(p *Proc) { p.SleepThen(time.Millisecond, func(p *Proc) { p.Sleep(time.Millisecond) }) })
			})
		}, `sim: process "p" panicked: sim: process "p" cannot block inside Inline`},
		{"continuation outside Inline", func(e *Engine) {
			e.Spawn("p", func(p *Proc) { p.SleepThen(time.Millisecond, func(*Proc) {}) })
		}, `sim: process "p" panicked: sim: process "p": continuation on a goroutine process outside Inline or over a pending one`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine(1)
			tc.spawn(e)
			e.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
			if err := e.Run(); err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v, want %s", err, tc.want)
			}
			checkRetired(t, e)
			assertNoGoroutineLeak(t, before)
		})
	}
}

// A chained Use records the goroutine Use's critical-path graph — its
// segments, the waits it spends queued, and the release edges in both
// directions — and fires the same events, with fewer handoffs. The owner's
// goroutine resumes once per Use, never per step.
func TestCritInlineUseMatchesGoroutineUse(t *testing.T) {
	run := func(chained bool) (*critpath.Graph, int64, int64, []Time) {
		e := NewEngine(1)
		cp := critpath.NewRecorder()
		e.SetCritRecorder(cp)
		r := NewResource(e, "dev", 1)
		var done []Time
		for _, name := range []string{"a", "b", "c"} {
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 4; i++ {
					p.CritBegin("test", "use", 0)
					if chained {
						chainUse(p, r, time.Duration(i+1)*time.Millisecond)
					} else {
						r.Use(p, time.Duration(i+1)*time.Millisecond)
					}
					p.CritEnd()
					done = append(done, p.Now())
					p.Sleep(time.Duration(i) * 500 * time.Microsecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return cp.Finish(e.Now()), e.Events(), e.Handoffs(), done
	}
	got, gotEvents, gotHandoffs, gotDone := run(true)
	want, wantEvents, wantHandoffs, wantDone := run(false)
	if len(want.Edges) < 6 {
		t.Fatalf("weak scenario: %d release edges", len(want.Edges))
	}
	if gotEvents != wantEvents {
		t.Errorf("events: %d, goroutine Use %d", gotEvents, wantEvents)
	}
	if gotHandoffs >= wantHandoffs {
		t.Errorf("handoffs: %d, goroutine Use %d; want fewer", gotHandoffs, wantHandoffs)
	}
	if !reflect.DeepEqual(gotDone, wantDone) {
		t.Errorf("completions: %v, goroutine Use %v", gotDone, wantDone)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("graph differs:\n got %+v\nwant %+v", got, want)
	}
	if got.Unclosed != 0 {
		t.Errorf("%d processes ended with a region open", got.Unclosed)
	}
}
