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
	queueHint int32   // pre-size applied on first enqueue (0 = none)
	watcher   Watcher // told before each grant decision and read (Watch)

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
func (r *Resource) InUse() int {
	r.touch(false)
	return int(r.inUse)
}

// QueueLen returns the number of processes waiting for a grant.
func (r *Resource) QueueLen() int {
	r.touch(false)
	return len(r.queue) - int(r.qhead)
}

// SetQueueHint sizes the wait queue's first allocation for an expected
// number of concurrent waiters. Applied lazily, so uncontended resources
// still allocate nothing.
func (r *Resource) SetQueueHint(n int) { r.queueHint = int32(min(n, math.MaxInt32)) }

// Watcher is told before each grant decision of a resource it watches
// (Resource.Watch), with acquire true, and before each read of its state
// (InUse, QueueLen, BusyUnitNanos), with acquire false. A model that books
// a run of steps ahead as one event uses it to settle its books first, so
// that whoever meets the run finds the resource as the per-step model
// would have left it at that point: a NIC's segment train (package
// cluster) splits when an acquire would queue behind it, and an OST's
// background noise (package lustre) records the bursts already passed
// (HoldFrom, ReleaseAt) and, when someone acquires, goes back to one
// event per step. A read must not schedule anything: the metrics sampler
// reads. An interface rather than a func, so that a pointer watcher costs
// no allocation.
type Watcher interface{ Touch(acquire bool) }

// Watch makes w the watcher of r; a nil w (the default) removes it. Reset
// keeps it.
func (r *Resource) Watch(w Watcher) { r.watcher = w }

func (r *Resource) touch(acquire bool) {
	if r.watcher != nil {
		r.watcher.Touch(acquire)
	}
}

// HoldFrom grants n units to the holder of a run that its watcher booked
// ahead, as of instant from: no earlier than r's last change of state,
// not after now, with the units free and nobody queued. The busy integral
// counts the hold from then on, as if it had been granted at from.
func (r *Resource) HoldFrom(n int, from Time) {
	if n < 1 || r.inUse+int32(n) > r.cap || int(r.qhead) != len(r.queue) || from < r.lastChange || from > r.e.Now() {
		r.badBooking(n, from)
	}
	r.settle(from)
	r.inUse += int32(n)
}

// ReleaseAt returns n units a watcher's holder took with HoldFrom, as of
// instant at, no earlier than r's last change of state and not after now,
// with nobody queued: it ends the hold in the busy integral at at.
func (r *Resource) ReleaseAt(n int, at Time) {
	if n < 1 || n > int(r.inUse) || int(r.qhead) != len(r.queue) || at < r.lastChange || at > r.e.Now() {
		r.badBooking(-n, at)
	}
	r.settle(at)
	r.inUse -= int32(n)
}

//go:noinline
func (r *Resource) badBooking(n int, at Time) {
	panic(fmt.Sprintf("sim: booked hold %+d of resource %q at %v: %d of %d in use, %d queued, last change %v, now %v",
		n, r.name, at, r.inUse, r.cap, len(r.queue)-int(r.qhead), r.lastChange, r.e.Now()))
}

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

func (r *Resource) account() { r.settle(r.e.Now()) }

// settle brings the busy integral up to instant t.
func (r *Resource) settle(t Time) {
	r.busyUnitNanos += int64(r.inUse) * int64(t-r.lastChange)
	r.lastChange = t
}

// BusyUnitNanos returns the cumulative busy integral up to the current
// virtual instant, in unit-nanoseconds: a grant of n units for d nanoseconds
// adds n*d. Metrics samplers difference it across a sample interval to get
// the windowed busy fraction (see internal/metrics).
func (r *Resource) BusyUnitNanos() int64 {
	r.touch(false)
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
	if r.watcher != nil {
		r.watcher.Touch(true)
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
