package sim

import (
	"fmt"
	"math"
	"time"
)

// Resource is a FIFO-queued server with a fixed number of capacity units.
// It models contended hardware and services: an SSD channel, a NIC, a
// metadata server's request queue. Grants are strictly FIFO: a small request
// cannot overtake a large one, which mirrors the in-order queue pairs and
// request queues of the real devices being modelled.
type Resource struct {
	name string
	// The counts are int32 so that a Resource (96 bytes) stays in the
	// 96-byte size class with its watcher.
	cap   int32
	inUse int32
	// queue[qhead:] are the live waiters, stored by value so queueing
	// allocates nothing beyond amortized slice growth. Vacated slots are
	// zeroed so a drained queue never pins finished processes, and the
	// backing array is compacted once the dead prefix dominates.
	queue     []resWaiter
	qhead     int32
	queueHint int32        // pre-size applied on first enqueue (0 = none)
	watcher   QueueWatcher // told when a process queues (OnQueue)

	// Busy accumulates total grant-duration (units * time) for utilization
	// accounting; see BusyUnitNanos.
	busyUnitNanos int64
	lastChange    Time
	e             *Engine
}

type resWaiter struct {
	p *Proc
	n int32
}

// NewResource creates a resource with the given capacity, in [1,
// math.MaxInt32].
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity < 1 || capacity > math.MaxInt32 {
		panic(fmt.Sprintf("sim: resource %q capacity %d outside [1, %d]", name, capacity, math.MaxInt32))
	}
	return &Resource{name: name, cap: int32(capacity), e: e}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// InUse returns the currently granted units.
func (r *Resource) InUse() int { return int(r.inUse) }

// QueueLen returns the number of processes waiting for a grant.
func (r *Resource) QueueLen() int { return len(r.queue) - int(r.qhead) }

// SetQueueHint sizes the wait queue's first allocation for an expected
// number of concurrent waiters. Applied lazily, so uncontended resources
// still allocate nothing.
func (r *Resource) SetQueueHint(n int) { r.queueHint = int32(min(n, math.MaxInt32)) }

// QueueWatcher is told each time a process queues on a resource it
// watches (Resource.OnQueue).
type QueueWatcher interface{ Queued() }

// OnQueue makes w the watcher of r: each time a process queues on r (its
// acquire finds the units taken or earlier waiters), w.Queued runs right
// after it joins the queue. The resource's owner uses it to learn that
// someone waits: a NIC that booked a run of holds as one (package
// cluster) splits it there. An interface rather than a func, so that a
// pointer watcher costs no allocation. A nil w (the default) removes the
// watcher. Reset keeps it.
func (r *Resource) OnQueue(w QueueWatcher) { r.watcher = w }

// Reset returns the resource to its just-created state at the engine's
// current instant, keeping the wait queue's backing array and the queue
// hint — the pooled-reuse contract (Engine.Reset, DESIGN.md §3h): a reset
// resource on a reset engine is observationally identical to a fresh
// NewResource. Call only between runs; any waiters a failed run left
// behind are dropped.
func (r *Resource) Reset() {
	for i := range r.queue {
		r.queue[i] = resWaiter{}
	}
	r.queue = r.queue[:0]
	r.qhead = 0
	r.inUse = 0
	r.busyUnitNanos = 0
	r.lastChange = r.e.Now()
}

func (r *Resource) account() {
	now := r.e.Now()
	r.busyUnitNanos += int64(r.inUse) * int64(now-r.lastChange)
	r.lastChange = now
}

// BusyUnitNanos returns the cumulative busy integral up to the current
// virtual instant, in unit-nanoseconds: a grant of n units for d nanoseconds
// adds n*d. Metrics samplers difference it across a sample interval to get
// the windowed busy fraction (see internal/metrics).
func (r *Resource) BusyUnitNanos() int64 {
	r.account()
	return r.busyUnitNanos
}

// Acquire blocks p until n units are granted. n must be in [1, capacity].
func (r *Resource) Acquire(p *Proc, n int) {
	if !r.grantOrQueue(p, n) {
		p.Block()
	}
}

// AcquireThen is Acquire for a continuation (of a goroutine-free process,
// Engine.SpawnFunc, or an Inline chain): when the units are granted at
// once, fn runs inline; otherwise p queues FIFO and fn runs as its
// continuation when Release grants it. The grant is a Wake, so it lands at
// the same instant, with the same sequence number and critical-path edge,
// as a blocked Acquire's.
func (r *Resource) AcquireThen(p *Proc, n int, fn func(p *Proc)) {
	if r.TryAcquireThen(p, n, fn) {
		fn(p)
	}
}

// TryAcquireThen is AcquireThen without the inline call: it reports true
// when the units are granted at once, leaving the caller to go on itself,
// and otherwise queues p, with fn as the continuation its grant runs. A
// flat state machine steps through an immediate grant with it instead of
// recursing into itself.
func (r *Resource) TryAcquireThen(p *Proc, n int, fn func(p *Proc)) bool {
	if r.grantOrQueue(p, n) {
		return true
	}
	p.blockThen(fn)
	return false
}

// grantOrQueue grants n units to p when they are free and nobody is
// queued, reporting true; otherwise it queues p at the tail and reports
// false, leaving p to park until Release grants it.
func (r *Resource) grantOrQueue(p *Proc, n int) bool {
	if n < 1 || n > int(r.cap) {
		r.badAcquire(n)
	}
	if int(r.qhead) == len(r.queue) && r.inUse+int32(n) <= r.cap {
		r.account()
		r.inUse += int32(n)
		return true
	}
	if r.queue == nil && r.queueHint > 0 {
		r.queue = make([]resWaiter, 0, r.queueHint)
	}
	r.queue = append(r.queue, resWaiter{p: p, n: int32(n)})
	if r.watcher != nil {
		r.watcher.Queued()
	}
	return false
}

// Release returns n units and grants the queue head(s) in FIFO order.
func (r *Resource) Release(n int) {
	if n < 1 || n > int(r.inUse) {
		r.badRelease(n)
	}
	r.account()
	r.inUse -= int32(n)
	for int(r.qhead) < len(r.queue) && r.inUse+r.queue[r.qhead].n <= r.cap {
		w := r.queue[r.qhead]
		r.queue[r.qhead] = resWaiter{} // release the proc reference
		r.qhead++
		r.inUse += w.n
		w.p.Wake()
	}
	switch {
	case int(r.qhead) == len(r.queue):
		// Drained: reuse the backing array from the start.
		r.queue = r.queue[:0]
		r.qhead = 0
	case r.qhead > 64 && int(r.qhead) >= len(r.queue)/2:
		// Dead prefix dominates: compact live waiters to the front so a
		// long-lived queue's memory stays proportional to its depth.
		live := copy(r.queue, r.queue[r.qhead:])
		for i := live; i < len(r.queue); i++ {
			r.queue[i] = resWaiter{}
		}
		r.queue = r.queue[:live]
		r.qhead = 0
	}
}

//go:noinline
func (r *Resource) badAcquire(n int) {
	panic(fmt.Sprintf("sim: acquire %d of resource %q with capacity %d", n, r.name, r.cap))
}

//go:noinline
func (r *Resource) badRelease(n int) {
	panic(fmt.Sprintf("sim: release %d of resource %q with %d in use", n, r.name, r.inUse))
}

// Use acquires one unit, holds it for the service duration d, and releases
// it. It returns the total time spent (queueing + service).
func (r *Resource) Use(p *Proc, d time.Duration) time.Duration {
	start := p.Now()
	r.Acquire(p, 1)
	p.Sleep(d)
	r.Release(1)
	return p.Now() - start
}
