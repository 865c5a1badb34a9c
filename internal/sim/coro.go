//go:build go1.23

package sim

import "iter"

// coro is a runtime coroutine (iter.Pull) that runs an engine's Spawn
// processes, one after another. Run's goroutine is the only driver: it
// resumes a coroutine through next, and the coroutine runs until it
// yields the process to resume after it (nil: the driver dispatches).
// When its process ends — returns, panics or unwinds from an abort — the
// coroutine parks on the engine's idle list and yields nil; the next
// Spawn reuses it, so a coroutine's setup is paid once per engine, not
// once per process.
type coro struct {
	p     *Proc         // process to run on the next resume, fresh or idle
	fn    func(p *Proc) // its body
	next  func() (*Proc, bool)
	stop  func()
	yield func(*Proc) bool // valid on the coroutine only
	idle  *coro            // next on the engine's idle list
}

// newCoro creates a parked coroutine. Its goroutine exists from now on and
// first runs when the driver resumes it.
func newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// takeCoro hands Spawn an idle coroutine of e, or a new one.
func (e *Engine) takeCoro() *coro {
	if e.coros == nil {
		e.coros = &coroList{}
	}
	c := e.coros.idle
	if c == nil {
		return newCoro()
	}
	e.coros.idle, c.idle = c.idle, nil
	return c
}

// loop is the coroutine's body: run the assigned process, go idle, and
// park until resumed with the next one, until Close or Run's end stops it.
func (c *coro) loop(yield func(*Proc) bool) {
	c.yield = yield
	for {
		p, fn := c.p, c.fn
		c.p, c.fn = nil, nil
		p.run(fn)
		c.idle = p.e.coros.idle
		p.e.coros.idle = c
		if !yield(nil) {
			return
		}
	}
}
