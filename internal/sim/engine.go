// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock over a priority queue of events and
// runs each simulated process (Spawn) on a runtime coroutine (iter.Pull).
// The goroutine that called Run is the only driver: it resumes one
// coroutine at a time, and only the running code touches engine state. A
// process that sleeps or blocks pops the next events itself (Engine.next),
// runs callback events and the continuations of goroutine-free processes
// (SpawnFunc) inline, and simply keeps running when the next delivery
// targets itself; otherwise it yields that process to the driver, which
// resumes it. A coroutine switch never enters the Go scheduler. A
// coroutine process can also run a stretch of its own code as
// continuations (Proc.Inline), so a multi-step operation costs it one
// switch instead of one per step. A finished process's coroutine is kept
// on the engine's idle list for the next Spawn. Given the same seed and
// the same spawn order, a simulation is fully deterministic and
// independent of wall-clock scheduling.
//
// The kernel is the substrate for every simulated subsystem in this
// repository: storage devices, network fabrics, filesystems, the Lustre and
// DYAD services, and the MD workflow processes themselves. Millions of
// events flow through it per experiment sweep, so the hot path (sleep,
// block, wake, deliver) is allocation-free in steady state; see DESIGN.md
// §3c for the kernel performance model.
package sim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/critpath"
	"repro/internal/trace"
)

// Time is a point in virtual time, expressed as the elapsed duration since
// the start of the simulation (t=0).
type Time = time.Duration

// event is a scheduled occurrence. The dominant kind — delivering control
// to a sleeping or woken process, or running a goroutine-free process's
// pending continuation — is encoded as the owning process's index, so
// scheduling it allocates nothing; the general kind carries a callback.
// Events with equal time fire in schedule order (seq), which makes runs
// deterministic.
type event struct {
	at   Time
	seq  int64
	proc int32 // index into Engine.procs, or noProc for callback events
	fn   func()
}

// noProc marks an event that runs fn instead of delivering to a process.
const noProc = int32(-1)

// before reports whether a fires before b: earlier time first, schedule
// order breaking ties.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ErrStranded is reported by Run when the event queue drains while one or
// more processes are still blocked on a signal or resource that can never
// be granted. Stranded processes are aborted so no goroutines leak.
var ErrStranded = errors.New("sim: processes stranded at end of run")

// ErrWatchdog is reported by Run when a watchdog limit set with SetWatchdog
// is exceeded: the run executed more events or advanced further in virtual
// time than the configured budget. It converts a livelocked simulation (for
// example a retry loop that never stops re-scheduling itself) into a
// descriptive error instead of an endless spin.
var ErrWatchdog = errors.New("sim: watchdog limit exceeded")

// Engine is a discrete-event simulation instance. Create one with NewEngine,
// spawn processes with Spawn, then call Run. Engines are not safe for use
// from multiple OS threads; all interaction must happen either before Run or
// from within simulated processes.
type Engine struct {
	now Time
	seq int64
	// pq holds the pending events by (at, seq): an amortized-O(1) ladder
	// queue with a lane for events due at the current instant (queue.go).
	pq    eventq
	coros *coroList // idle coroutines; nil before the first Spawn or Retain
	procs []*Proc
	// profs holds each process's profile, tallies and the instant its
	// pending delivery was scheduled, by spawn slot (profile.go). It makes
	// the Engine 1528 bytes, which with its allocation header fits the
	// 1536-byte size class (see live).
	profs   []profTable
	seed    uint64
	failure error
	rec     *trace.Recorder
	cp      *critpath.Recorder
	// curProc is the proc whose turn it is, for release attribution in
	// Wake and Spawn. next sets it on each delivery (a goroutine-free
	// process's continuation runs as its owner) and resets it to noProc
	// before running a callback or returning nil, so a callback popped in
	// a parking process is still the kernel's.
	curProc int32
	// live counts the procs spawned and not yet finished. It is an int32
	// beside curProc, like eventq's lane indices, so that an Engine with
	// its allocation header fits the 1536-byte size class.
	live int32
	// firing is the sequence number of the event being run (FiringBefore),
	// and firingSince the instant at which it was scheduled, -1 when that
	// is unknown (ScheduledAfter).
	firing      int64
	firingSince Time
	// free holds the engine's free lists (FreeList): chain states, and
	// the tables lent to the current run.
	free *freeLists

	// Watchdog limits (0 = unlimited); see SetWatchdog.
	maxEvents int64
	maxTime   Time
	fired     int64 // events fired so far
	handoffs  int64 // coroutine resumes by the driver so far

	// Sampler hook (nil = off); see SetSampler.
	sampleEvery Time
	sampleNext  Time
	sampleFn    func(t Time)
}

// NewEngine returns an engine with its virtual clock at zero. The seed
// drives every per-process random stream; two engines with equal seeds and
// equal workloads produce identical event timelines.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		seed:    seed,
		curProc: noProc,
	}
}

// coroList is an engine's idle coroutines, linked through coro.idle. It
// sits behind a pointer so that an Engine keeps its size class (see live).
type coroList struct {
	idle   *coro
	retain bool // keep them past Run's end (Retain)
}

// Retain keeps the engine's idle coroutines when a Run ends, so the Spawns
// of its next run (after Reset) reuse them instead of starting new ones.
// Harnesses that pool engines across runs call it once per engine (core's
// run pools; DESIGN.md §3h), and must call Close when they drop the
// engine: an idle coroutine is a parked goroutine, which the garbage
// collector never frees. The runtime aborts the process if a coroutine is
// resumed in another OS-thread locking state than the one it was created
// in, so a retained engine that moves between goroutines must only run on
// goroutines not locked to their thread (runtime.LockOSThread).
func (e *Engine) Retain() {
	if e.coros == nil {
		e.coros = &coroList{}
	}
	e.coros.retain = true
}

// Close stops retaining and releases the engine's idle coroutines. A
// closed engine stays usable; its next Run releases what it spawned.
func (e *Engine) Close() {
	if e.coros == nil {
		return
	}
	e.coros.retain = false
	for c := e.coros.idle; c != nil; {
		next := c.idle
		c.idle = nil
		c.stop()
		c = next
	}
	e.coros.idle = nil
}

// Prealloc reserves capacity for an expected workload: procs processes and
// events simultaneously pending events. Harnesses that know their ensemble
// size call it once per run so repetition sweeps never re-grow the process
// table, the profile tables or the event queue. Undersized (or unset) hints only cost the usual
// amortized growth; they never limit the run.
func (e *Engine) Prealloc(procs, events int) {
	if procs > cap(e.procs) {
		grown := make([]*Proc, len(e.procs), procs)
		copy(grown, e.procs)
		e.procs = grown
	}
	e.growProfs(procs)
	e.pq.grow(events)
}

// Reset returns the engine to its initial state under a new seed, keeping
// every backing array — the event queue, the process table and the
// profile tables — and the idle coroutines of a retained engine (Retain), so
// harnesses can reuse one engine across repetitions instead of reallocating
// the rig per rep (core's pooled RunMany; DESIGN.md §3h). Every value lent
// to the ending run (FreeList.Lend), its processes included, goes back to
// its free list, for the next run to take. A reset engine is
// observationally identical to NewEngine(seed): every run-visible field is
// cleared, and per-process random streams derive only from the seed and the
// spawn order. Call between Runs only.
func (e *Engine) Reset(seed uint64) {
	if e.live > 0 {
		panic("sim: Reset while processes are live")
	}
	e.now = 0
	e.seq = 0
	e.firing, e.firingSince = 0, 0
	e.fired = 0
	e.handoffs = 0
	for i := range e.procs {
		e.procs[i] = nil
	}
	e.procs = e.procs[:0]
	for i := range e.profs {
		e.profs[i] = profTable{nodes: e.profs[i].nodes[:0]}
	}
	e.profs = e.profs[:0]
	e.seed = seed
	e.failure = nil
	e.rec = nil
	e.cp = nil
	e.curProc = noProc
	e.maxEvents, e.maxTime = 0, 0
	e.sampleEvery, e.sampleNext, e.sampleFn = 0, 0, nil
	e.pq.reset()
	if e.free != nil {
		e.free.reclaim()
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Live returns the number of processes spawned and not yet finished. It
// is zero after a Run that unwound every process, failed or not.
func (e *Engine) Live() int { return int(e.live) }

// Procs returns the processes spawned so far, in spawn order, until the
// next Reset. The slice is the engine's own: read it, do not change it.
func (e *Engine) Procs() []*Proc { return e.procs }

// SetRecorder installs a span recorder: modeled operations emit virtual-time
// spans through it (see Proc.Rec and package trace). A nil recorder (the
// default) disables span tracing at zero cost — emission sites pay one nil
// check and never allocate.
func (e *Engine) SetRecorder(r *trace.Recorder) { e.rec = r }

// SetWatchdog arms run limits: Run aborts with an error wrapping ErrWatchdog
// once it has fired more than maxEvents events or virtual time passes
// maxTime. Zero disables the respective limit (the default). The watchdog is
// the backstop that keeps a livelocked workload — a recovery policy retrying
// forever, processes ping-ponging wakes at one instant — from hanging a
// batch; aborted runs unwind cleanly like any other failed run.
func (e *Engine) SetWatchdog(maxEvents int64, maxTime Time) {
	if maxEvents < 0 || maxTime < 0 {
		panic("sim: negative watchdog limit")
	}
	e.maxEvents = maxEvents
	e.maxTime = maxTime
}

// Events returns the number of events fired so far. A delivery dropped
// because Proc.Retime moved it is not an event: it never fires.
func (e *Engine) Events() int64 { return e.fired }

// Watermark returns a mark of the events scheduled so far, for
// FiringBefore: every event scheduled before the call is at or below it,
// every later one above.
func (e *Engine) Watermark() int64 { return e.seq }

// FiringBefore reports whether the event being run was scheduled before
// Watermark returned mark. Among events due at one instant, those
// scheduled earlier fire first, so a model that stands one event in for a
// run of them (a NIC segment train in package cluster) asks it to place
// an arrival on one of its boundaries before or after the delivery the
// run would have fired there.
func (e *Engine) FiringBefore(mark int64) bool { return e.firing <= mark }

// ScheduledAfter reports whether the delivery being run was scheduled
// after instant t. It places code running at an instant against a
// delivery there that a model booked ahead stands in for: one the
// per-step model would have scheduled at t, when its previous step ran.
// A delivery scheduled before t fires before it, and one scheduled after
// t fires after it. (A delivery scheduled at t itself is reported as
// before: whether it followed the step at t is not recorded.) A callback
// and the sampler report false: they count as scheduled before any
// instant.
func (e *Engine) ScheduledAfter(t Time) bool { return e.firingSince > t }

// Quiet reports whether no event other than the one being run is due at
// the current instant. A delivery that fires earlier in its instant than
// the one it stands in for would (a booked run of steps ends there) steps
// aside when it is not quiet, with a zero sleep.
func (e *Engine) Quiet() bool { return e.pq.quietAt(e.now) }

// Handoffs returns the number of times the driver has resumed a process's
// coroutine so far: the switches between processes the run paid for (each
// is a yield to the driver and a resume). A delivery the parking process
// keeps for itself, a callback, a continuation run inline, and the unwind
// of an aborted process are not handoffs. Like Events it is deterministic
// and observation-only.
func (e *Engine) Handoffs() int64 { return e.handoffs }

// SetSampler installs a fixed-interval virtual-time sampler: before each
// event fires, fn runs once for every elapsed boundary t = every, 2*every,
// ... up to and including the event's time, with Now() set to the boundary.
// The hook is not an event — it keeps nothing alive in the queue, does not
// count toward the watchdog's event budget, and stops with the last real
// event, so installing a sampler cannot change the event timeline. fn must
// only observe state (no scheduling, no RNG draws). A nil fn (the default)
// disables sampling; the run loop then pays one nil check per event.
//
// Two boundary rules keep sampled series well-formed:
//
//   - The first boundary is the first multiple of every strictly after the
//     current clock. Re-arming a sampler mid-run therefore never replays
//     past boundaries (which would run fn with the clock parked before
//     Now()) and never double-samples a boundary the previous sampler
//     already took when the run horizon landed exactly on it.
//   - Boundaries fire only for events that actually execute. An event that
//     trips the watchdog aborts the run before any of the boundaries it
//     would have carried the timeline across, so an ErrWatchdog unwind
//     takes no samples past the last healthy event.
func (e *Engine) SetSampler(every Time, fn func(t Time)) {
	if fn != nil && every <= 0 {
		panic("sim: nonpositive sample interval")
	}
	e.sampleEvery = every
	e.sampleFn = fn
	e.sampleNext = 0
	if fn != nil {
		e.sampleNext = (e.now/every + 1) * every
	}
}

// schedule enqueues fn to run at absolute virtual time at. Scheduling in
// the past is a programming error. An event due now goes to the queue's
// same-instant lane (its seq is the largest yet, so it follows every
// pending event of this instant), any other to the main queue.
func (e *Engine) schedule(at Time, fn func()) {
	if at < e.now {
		e.schedulePast(at)
	}
	e.seq++
	if ev := (event{at: at, seq: e.seq, proc: noProc, fn: fn}); at == e.now {
		e.pq.pushNow(ev)
	} else {
		e.pq.push(ev)
	}
}

// scheduleDeliver enqueues delivery to the process at index idx —
// the steady-state event kind behind Sleep, Wake, and Spawn. Unlike
// schedule it captures no closure, so it allocates nothing.
func (e *Engine) scheduleDeliver(at Time, idx int32) {
	if at < e.now {
		e.schedulePast(at)
	}
	e.seq++
	e.profs[idx].since = e.now
	if ev := (event{at: at, seq: e.seq, proc: idx}); at == e.now {
		e.pq.pushNow(ev)
	} else {
		e.pq.push(ev)
	}
}

// schedulePast panics on an event scheduled before now. Cold paths such as
// this one are kept out of line throughout the kernel: continuations often
// run inside a parking process, deep in its coroutine's stack, so every
// byte of a hot frame counts (DESIGN.md §3c).
//
//go:noinline
func (e *Engine) schedulePast(at Time) {
	panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
}

// After schedules fn to run d from now. It may be called before Run or from
// within a process.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.schedule(e.now+d, fn)
}

// Run executes events until the queue is empty or the run fails. It
// returns the first failure (a process or event panic, or a watchdog
// abort), or ErrStranded if processes remain blocked with no pending
// events (a lost-signal deadlock). All stranded processes are aborted
// before Run returns, so no goroutines leak, and the idle coroutines are
// released unless the engine is retained (Retain).
func (e *Engine) Run() error {
	e.drive(e.next())
	err := e.finish()
	if e.coros != nil && !e.coros.retain {
		e.Close()
	}
	return err
}

// drive is the driver loop on Run's goroutine: it resumes q, then each
// process the running one yields, and dispatches itself when a process
// ends (yields nil), until next reports the run over.
func (e *Engine) drive(q *Proc) {
	for q != nil {
		e.handoffs++
		if q, _ = q.co.next(); q == nil {
			q = e.next()
		}
	}
}

// next is the one dispatch loop, run by the driver or by a parking
// process. It pops events in (at, seq) order, runs callback events and
// continuations (of goroutine-free processes and Inline chains) inline,
// and returns the target of the first delivery to a coroutine process —
// or of the last step of its chain — with waiting cleared and curProc set;
// the caller resumes that process, or keeps running when it is the caller.
// It returns nil, and keeps returning nil, once the queue drains, the run
// has failed, or the watchdog trips. A panic in anything it runs inline —
// a callback, the sampler, a continuation — fails the run, whoever popped
// the event, and next returns nil (recoverInline).
func (e *Engine) next() *Proc {
	defer e.recoverInline()
	for e.failure == nil && e.pq.len() > 0 {
		ev := e.pq.pop()
		// A delivery Retime moved away is dropped unfired, before anything
		// counts or observes it: it is no event of the run.
		if ev.proc != noProc && ev.seq <= e.procs[ev.proc].stale {
			continue
		}
		// The watchdog is checked before the sampler so an aborting run
		// takes no samples for boundaries its final, never-executed event
		// would have crossed (see SetSampler).
		if (e.maxEvents > 0 && e.fired+1 > e.maxEvents) || (e.maxTime > 0 && ev.at > e.maxTime) {
			e.tripWatchdog(ev.at)
			break
		}
		if e.sampleFn != nil && e.sampleNext <= ev.at {
			e.sample(ev.at)
		}
		e.now = ev.at
		e.firing = ev.seq
		e.fired++
		if ev.proc == noProc {
			e.curProc = noProc // callbacks are the kernel's, whoever pops them
			e.firingSince = -1
			ev.fn()
			continue
		}
		e.firingSince = e.profs[ev.proc].since
		p := e.procs[ev.proc]
		if p.done {
			e.wakeFinished(p)
			break
		}
		waited := p.waiting
		p.waiting = false
		e.curProc = p.idx
		if p.co != nil && p.cont == nil {
			return p
		}
		// A goroutine-free process, or an Inline chain: run the
		// continuation here, and resume a chain's coroutine once the
		// chain is done.
		if e.resumeFunc(p, waited) {
			return p
		}
	}
	e.curProc = noProc
	return nil
}

// tripWatchdog fails the run on the event at `at`, which exceeds a
// watchdog limit; the event counts as fired but does not execute.
//
//go:noinline
func (e *Engine) tripWatchdog(at Time) {
	e.now = at
	e.fired++
	e.failure = fmt.Errorf("%w: %d events fired, virtual time %v (limits: %d events, %v)",
		ErrWatchdog, e.fired, e.now, e.maxEvents, e.maxTime)
}

// wakeFinished fails the run on a delivery to a retired process.
//
//go:noinline
func (e *Engine) wakeFinished(p *Proc) {
	e.failure = fmt.Errorf("sim: event at %v: wake of finished process %q", e.now, p.name)
}

// sample fires every sample boundary the timeline is about to cross on
// its way to upTo, with the clock parked on the boundary so
// time-integrated probes (Resource.BusyUnitNanos) integrate exactly to it.
// Boundaries at upTo itself sample before the event there fires. The
// hook is the kernel's, like a callback: a panic in it fails the run as
// an event's (recoverInline).
func (e *Engine) sample(upTo Time) {
	e.curProc = noProc
	// The sampler comes before every event at its boundary.
	e.firing, e.firingSince = 0, -1
	for e.sampleNext <= upTo {
		e.now = e.sampleNext
		e.sampleFn(e.sampleNext)
		e.sampleNext += e.sampleEvery
	}
}

// recoverInline is deferred by next: it records a panic in the code next
// runs inline as the run's failure, keeping an error value's chain. The
// current process tells whose code it was: a continuation's fails the
// run under its process's name, and a goroutine-free process is retired,
// as a panicking coroutine process is (an Inline chain's owner stays
// live, parked in Inline, for finish to unwind); a callback's or the
// sampler's fails it as the event's. One deferred call per dispatch loop,
// rather than one per callback and continuation, keeps the recovery off
// the per-event path.
func (e *Engine) recoverInline() {
	if r := recover(); r != nil {
		e.failInline(r)
	}
}

// failInline records r, a panic out of code next ran inline, as the run's
// failure. It is out of line so that recoverInline, deferred by every
// dispatch loop, keeps a small frame.
//
//go:noinline
func (e *Engine) failInline(r any) {
	if e.curProc != noProc {
		p := e.procs[e.curProc]
		e.failProc(p, r)
		if p.co == nil {
			e.exit(p)
		}
	} else if err, ok := r.(error); ok {
		e.failure = fmt.Errorf("sim: event at %v panicked: %w", e.now, err)
	} else {
		e.failure = fmt.Errorf("sim: event at %v panicked: %v", e.now, r)
	}
	e.curProc = noProc
}

// finish unwinds the run: stranded and orphaned processes are aborted,
// events their cleanup code scheduled are drained through next, and the
// first failure (or strandedness) is reported. It repeats while processes
// are still exiting, so cleanup that spawns or strands further processes
// leaks no coroutines either.
func (e *Engine) finish() error {
	var stranded []string
	for {
		live := e.live
		// Index, not range: cleanup code may spawn while being aborted.
		for i := 0; i < len(e.procs); i++ {
			p := e.procs[i]
			switch {
			case p.done:
			case p.waiting:
				if !p.aborted { // cleanup that blocks again is not news
					stranded = append(stranded, p.name)
				}
				p.abort()
			case e.failure != nil:
				// An aborted run (process failure or watchdog) can strand
				// processes that are merely sleeping — their delivery events
				// die with the queue. Unwind them too so no goroutines leak.
				p.abort()
			}
		}
		// Like the main loop, next stops at the first failure: a panic
		// during cleanup must not keep executing subsequent events against
		// now-inconsistent state.
		if q := e.next(); q != nil {
			e.drive(q)
		} else if e.live == 0 || e.live == live {
			break // all exited, or a pass freed none (code swallowing procAbort)
		}
	}
	// Keep the backing arrays for engines that run again; clear residual
	// events (present only after a failure) so their callbacks are freed.
	e.pq.reset()
	if e.failure != nil {
		return e.failure
	}
	if len(stranded) > 0 {
		return fmt.Errorf("%w: %v", ErrStranded, stranded)
	}
	return nil
}
