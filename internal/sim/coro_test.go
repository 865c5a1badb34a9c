package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settledGoroutines returns the goroutine count once it stops falling, so
// a coroutine that has just returned is not counted.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// A retained engine keeps its coroutines from run to run: a later, smaller
// run spawns on recycled coroutines only, and a process that panics on one
// fails the run under its own name. Its coroutine is recycled like any
// other, so the next run still starts no goroutine, and Close releases
// every one of them.
func TestRecycledCoroutinePanicFailsRun(t *testing.T) {
	before := settledGoroutines()
	e := NewEngine(1)
	e.Retain()
	const warm = 8
	for i := 0; i < warm; i++ {
		e.Spawn(fmt.Sprintf("warm%d", i), func(p *Proc) { p.Sleep(time.Duration(i) * time.Millisecond) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := settledGoroutines() - before; got != warm {
		t.Fatalf("retained engine keeps %d coroutines after the run, want %d", got, warm)
	}

	e.Reset(2)
	var ran []string
	for _, name := range []string{"first", "bad", "last"} {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(time.Millisecond)
			ran = append(ran, p.Name())
			if p.Name() == "bad" {
				panic("boom")
			}
			p.Sleep(time.Millisecond)
		})
	}
	err := e.Run()
	if err == nil || err.Error() != `sim: process "bad" panicked: boom` {
		t.Fatalf("err = %v, want the panic of process \"bad\"", err)
	}
	if got := strings.Join(ran, ","); got != "first,bad" {
		t.Fatalf("processes ran %q before the failure, want first,bad", got)
	}
	if got := settledGoroutines() - before; got != warm {
		t.Fatalf("after the failed run the engine holds %d coroutines, want %d (all recycled)", got, warm)
	}

	e.Reset(3)
	for i := 0; i < warm; i++ {
		e.Spawn(fmt.Sprintf("again%d", i), func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("run after a panic on a recycled coroutine: %v", err)
	}
	if got := settledGoroutines() - before; got != warm {
		t.Fatalf("third run leaves %d coroutines, want %d", got, warm)
	}
	e.Close()
	assertNoGoroutineLeak(t, before)
}
