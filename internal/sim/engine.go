// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock over a priority queue of events and
// runs simulated processes as goroutine coroutines. Exactly one goroutine
// holds the baton at any instant, and only the holder touches engine state.
// There is no scheduler goroutine in the loop: a process that sleeps or
// blocks pops the next events itself (Engine.next), runs callback events
// and the continuations of goroutine-free processes (SpawnFunc) inline,
// and hands the baton over an unbuffered channel straight to the process
// the next delivery targets — or simply keeps running when that process is
// itself. A goroutine process can also run a stretch of its own code as
// continuations (Proc.Inline), so a multi-step operation costs it one
// handoff instead of one per step. The goroutine that called Run gets the
// baton back only when the run is over. Given the same seed and the same
// spawn order, a simulation is fully deterministic and independent of
// wall-clock scheduling.
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

// event is a scheduled occurrence. The dominant kind — delivering the baton
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
	// pq holds the pending events by (at, seq): an adaptive queue that is
	// the inlined 4-ary min-heap for paper-sized runs and migrates to an
	// amortized-O(1) ladder queue past ~1k pending events (queue.go).
	pq       eventq
	kernelCh chan struct{} // the baton returns to Run's goroutine on this channel
	procs    []*Proc
	seed     uint64
	failure  error
	tracer   func(t Time, procName, msg string)
	rec      *trace.Recorder
	cp       *critpath.Recorder
	// curProc is the proc whose turn it is, for release attribution in
	// Wake and Spawn. next sets it on each delivery (a goroutine-free
	// process's continuation runs as its owner) and resets it to noProc
	// before running a callback or returning the baton to Run, so a
	// callback popped on a process's goroutine is still the kernel's.
	curProc int32
	// live counts the procs spawned and not yet finished. It is an int32
	// beside curProc, like eventq's lane indices, so that an Engine with
	// its allocation header fits the 1536-byte size class.
	live int32

	// Watchdog limits (0 = unlimited); see SetWatchdog.
	maxEvents int64
	maxTime   Time
	fired     int64 // events fired so far
	handoffs  int64 // baton passes to a process goroutine so far

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
		kernelCh: make(chan struct{}),
		seed:     seed,
		curProc:  noProc,
	}
}

// Prealloc reserves capacity for an expected workload: procs processes and
// events simultaneously pending events. Harnesses that know their ensemble
// size call it once per run so repetition sweeps never re-grow the process
// table or the event heap. Undersized (or unset) hints only cost the usual
// amortized growth; they never limit the run.
func (e *Engine) Prealloc(procs, events int) {
	if procs > cap(e.procs) {
		grown := make([]*Proc, len(e.procs), procs)
		copy(grown, e.procs)
		e.procs = grown
	}
	e.pq.grow(events)
}

// Reset returns the engine to its initial state under a new seed, keeping
// every backing array — the event queue and the process table — so
// harnesses can reuse one engine across repetitions instead of reallocating
// the rig per rep (core's pooled RunMany; DESIGN.md §3h). A reset engine is
// observationally identical to NewEngine(seed): every run-visible field is
// cleared, and per-process random streams derive only from the seed and the
// spawn order. Call between Runs only.
func (e *Engine) Reset(seed uint64) {
	if e.live > 0 {
		panic("sim: Reset while processes are live")
	}
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.handoffs = 0
	for i := range e.procs {
		e.procs[i] = nil
	}
	e.procs = e.procs[:0]
	e.seed = seed
	e.failure = nil
	e.tracer = nil
	e.rec = nil
	e.cp = nil
	e.curProc = noProc
	e.maxEvents, e.maxTime = 0, 0
	e.sampleEvery, e.sampleNext, e.sampleFn = 0, 0, nil
	e.pq.reset()
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() uint64 { return e.seed }

// SetTracer installs a callback invoked by Proc.Tracef. A nil tracer (the
// default) makes tracing free.
func (e *Engine) SetTracer(fn func(t Time, procName, msg string)) { e.tracer = fn }

// SetRecorder installs a span recorder: modeled operations emit virtual-time
// spans through it (see Proc.Rec and package trace). A nil recorder (the
// default) disables span tracing at zero cost — emission sites pay one nil
// check and never allocate.
func (e *Engine) SetRecorder(r *trace.Recorder) { e.rec = r }

// Recorder returns the installed span recorder, or nil when span tracing
// is off.
func (e *Engine) Recorder() *trace.Recorder { return e.rec }

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

// Events returns the number of events fired so far.
func (e *Engine) Events() int64 { return e.fired }

// Handoffs returns the number of times the baton has passed to a process
// goroutine so far: the goroutine switches the run paid for. A delivery
// the yielding process keeps for itself, a callback, and a continuation
// run inline are not handoffs. Like Events it is deterministic and
// observation-only.
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

// heapPush inserts ev into the inlined 4-ary min-heap pq (ordered by
// (at, seq)) and returns the updated slice. The heap is the small-N mode of
// eventq (queue.go).
func heapPush(pq []event, ev event) []event {
	pq = append(pq, ev)
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !pq[i].before(&pq[parent]) {
			break
		}
		pq[i], pq[parent] = pq[parent], pq[i]
		i = parent
	}
	return pq
}

// heapPop removes and returns the earliest event of pq.
func heapPop(pq []event) (event, []event) {
	top := pq[0]
	n := len(pq) - 1
	last := pq[n]
	pq[n] = event{} // clear the vacated slot so callbacks are not pinned
	pq = pq[:n]
	if n == 0 {
		return top, pq
	}
	// Sift last down from the root.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for j := c + 1; j < end; j++ {
			if pq[j].before(&pq[min]) {
				min = j
			}
		}
		if !pq[min].before(&last) {
			break
		}
		pq[i] = pq[min]
		i = min
	}
	pq[i] = last
	return top, pq
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

// scheduleDeliver enqueues baton delivery to the process at index idx —
// the steady-state event kind behind Sleep, Wake, and Spawn. Unlike
// schedule it captures no closure, so it allocates nothing.
func (e *Engine) scheduleDeliver(at Time, idx int32) {
	if at < e.now {
		e.schedulePast(at)
	}
	e.seq++
	if ev := (event{at: at, seq: e.seq, proc: idx}); at == e.now {
		e.pq.pushNow(ev)
	} else {
		e.pq.push(ev)
	}
}

// schedulePast panics on an event scheduled before now. Cold paths such as
// this one are kept out of line throughout the kernel: continuations run
// on whichever goroutine holds the baton, often deep in a blocked
// process's stack, so every byte of a hot frame counts (DESIGN.md §3c).
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
// before Run returns, so no goroutines leak.
//
// Run hands the baton to the first process due and waits for it to come
// back (see next).
func (e *Engine) Run() error {
	if q := e.next(); q != nil {
		e.pass(q)
		<-e.kernelCh
	}
	return e.finish()
}

// next is the one dispatch loop, run by whichever goroutine holds the
// baton. It pops events in (at, seq) order, runs callback events and
// continuations (of goroutine-free processes and Inline chains) inline,
// and returns the target of the first delivery to a goroutine process —
// or of the last step of its chain — with waiting cleared and curProc set;
// the caller hands that process the baton, or keeps it. It returns nil,
// the cue to give the baton back to Run, when the queue drains, the run
// has failed, or the watchdog trips. A panic in a callback or the sampler
// fails the run, whichever goroutine popped the event.
func (e *Engine) next() *Proc {
	for e.failure == nil && e.pq.len() > 0 {
		ev := e.pq.pop()
		// The watchdog is checked before the sampler so an aborting run
		// takes no samples for boundaries its final, never-executed event
		// would have crossed (see SetSampler).
		if (e.maxEvents > 0 && e.fired+1 > e.maxEvents) || (e.maxTime > 0 && ev.at > e.maxTime) {
			e.tripWatchdog(ev.at)
			break
		}
		if e.sampleFn != nil && e.sampleNext <= ev.at {
			if e.sample(ev.at); e.failure != nil {
				break
			}
		}
		e.now = ev.at
		e.fired++
		if ev.proc == noProc {
			e.curProc = noProc // callbacks are the kernel's, whoever pops them
			e.call(ev.fn)
			continue
		}
		p := e.procs[ev.proc]
		if p.done {
			e.wakeFinished(p)
			break
		}
		waited := p.waiting
		p.waiting = false
		e.curProc = p.idx
		if p.resume != nil && p.cont == nil {
			return p
		}
		// A goroutine-free process, or an Inline chain: run the
		// continuation here, and resume a chain's goroutine once the
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
// Boundaries at upTo itself sample before the event there fires.
func (e *Engine) sample(upTo Time) {
	defer e.recoverEvent()
	for e.sampleNext <= upTo {
		e.now = e.sampleNext
		e.sampleFn(e.sampleNext)
		e.sampleNext += e.sampleEvery
	}
}

// call runs a callback event, converting a panic into a run failure.
func (e *Engine) call(fn func()) {
	defer e.recoverEvent()
	fn()
}

// recoverEvent is deferred around code next runs inline: it records a
// panic as the run's failure, keeping an error value's chain.
func (e *Engine) recoverEvent() {
	r := recover()
	if r == nil {
		return
	}
	if err, ok := r.(error); ok {
		e.failure = fmt.Errorf("sim: event at %v panicked: %w", e.now, err)
	} else {
		e.failure = fmt.Errorf("sim: event at %v panicked: %v", e.now, r)
	}
}

// finish unwinds the run: stranded and orphaned processes are aborted,
// events their cleanup code scheduled are drained through next, and the
// first failure (or strandedness) is reported. It repeats while processes
// are still exiting, so cleanup that spawns or strands further processes
// leaks no goroutines either.
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
			e.pass(q)
			<-e.kernelCh
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
