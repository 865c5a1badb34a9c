package sim

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// Proc is a simulated process: user code that gives up control whenever
// it sleeps or blocks. A process made by Spawn runs on a runtime coroutine
// that Run's goroutine, the only driver, resumes; a goroutine-free process
// (SpawnFunc) has no coroutine: its code is a chain of continuations the
// dispatch loop runs inline. Exactly one of them runs at a time, and every
// switch is a coroutine switch, so user code never needs locks for
// simulation state.
type Proc struct {
	e    *Engine
	name string
	co   *coro         // nil for a goroutine-free process
	cont func(p *Proc) // pending continuation: goroutine-free, or an Inline chain's
	rng  RNG
	// stale is the watermark of deliveries Retime moved away: one to p
	// scheduled at or below it is dropped unfired.
	stale   int64
	idx     int32 // index in Engine.procs; identifies the proc in events
	inline  bool  // a coroutine process running an Inline chain
	done    bool
	waiting bool // blocked on a signal/resource (not a timed event)
	aborted bool
}

// procAbort is panicked inside a stranded process to unwind it at the end
// of a run. It is recovered by run and never escapes.
type procAbort struct{}

// Spawn creates a process named name running fn, starting at the current
// virtual time. It may be called before Run or from within another process.
// The Proc is lent by e (FreeList.Lend): it is valid until e's next Reset.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := e.newProc(name)
	p.co = e.takeCoro()
	p.co.p, p.co.fn = p, fn
	e.start(p)
	return p
}

// run is the life of a coroutine process: fn, unless p was aborted before
// its first delivery, then p's exit. A panic out of fn fails the run under
// p's name; the abort unwind ends here too. Either way the coroutine goes
// on to its next process.
func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, isAbort := r.(procAbort); !isAbort {
				p.e.failProc(p, r)
			}
		}
		p.e.exit(p)
	}()
	if !p.aborted {
		fn(p)
	}
}

// SpawnFunc creates a goroutine-free process named name: its code is a
// chain of continuations that the dispatch loop runs inline, on the driver
// or in whichever process is parking, so no event of it costs a coroutine
// switch. (Proc.Inline gives a coroutine process the same for a stretch of
// code.) It gets everything Spawn gives a process — an index, the random
// stream of its spawn slot, the critical-path spawn edge — and fn runs on
// its first delivery at the current instant. Each continuation either
// names the next one (SleepThen, Resource.AcquireThen) or returns without
// doing so, which ends the process at that instant as a coroutine
// process's return would. Continuations must not call the blocking
// methods (Sleep, Block, Resource.Acquire, Use); a panic in one fails the
// run under the process's name. The Proc is lent by e, as Spawn's is: it
// is valid until e's next Reset.
func (e *Engine) SpawnFunc(name string, fn func(p *Proc)) *Proc {
	p := e.newProc(name)
	p.cont = fn
	e.start(p)
	return p
}

// procList is the engines' free list of processes: a warmed engine
// spawns a run of a shape it has seen without allocating a Proc.
var procList = NewFreeList[Proc]()

// newProc registers a live process in the next spawn slot, on a Proc e
// lends, with nothing left of its last run. Its random stream derives
// from the seed, the name and the slot only, so the two kinds of process
// can interleave without shifting anyone's stream.
func (e *Engine) newProc(name string) *Proc {
	p := procList.Lend(e)
	*p = Proc{
		e:    e,
		name: name,
		idx:  int32(len(e.procs)),
		rng:  NewRNG(e.seed ^ hash64(name) ^ uint64(len(e.procs)+1)*0x9e3779b97f4a7c15),
	}
	e.procs = append(e.procs, p)
	if len(e.procs) > len(e.profs) {
		e.growProfs(len(e.procs))
	}
	e.live++
	return p
}

// start records p's spawn edge and schedules its first delivery now.
func (e *Engine) start(p *Proc) {
	if cp := e.cp; cp != nil {
		cp.StartProc(p.idx, p.name, e.curProc, e.now)
	}
	e.scheduleDeliver(e.now, p.idx)
}

// failProc records r, a panic out of p's code, as the run's failure unless
// the run has already failed.
func (e *Engine) failProc(p *Proc, r any) {
	if e.failure != nil {
		return
	}
	if err, ok := r.(error); ok {
		// Processes abort by panicking with an error value; keep the chain
		// so callers can errors.Is against the wrapped sentinel
		// (faults.ErrDeviceFailed, ...).
		e.failure = fmt.Errorf("sim: process %q failed: %w", p.name, err)
	} else {
		e.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
	}
}

// exit retires p now: its critical-path end edge (none when aborted), then
// the done mark and the live count.
func (e *Engine) exit(p *Proc) {
	if cp := e.cp; cp != nil && !p.aborted {
		cp.EndProc(p.idx, e.now)
	}
	p.done = true
	e.live--
}

// resumeFunc runs p's pending continuation inline, with curProc already
// set to p so the wakes it issues are attributed to it. A wait ends here,
// where Block would record it on resumption. A continuation that names no
// successor ends a goroutine-free process; for an Inline chain it ends the
// chain, and resumeFunc reports true: p's coroutine resumes now. A panic
// in the continuation is next's to recover (recoverInline).
func (e *Engine) resumeFunc(p *Proc, waited bool) bool {
	if cp := e.cp; cp != nil && waited {
		cp.EndWait(p.idx, e.now)
	}
	fn := p.cont
	p.cont = nil
	if fn(p); p.cont == nil {
		if p.co != nil {
			return true
		}
		e.exit(p)
	}
	return false
}

// yield gives up control until p is next delivered to.
func (p *Proc) yield() {
	if p.co == nil || p.inline {
		p.cannotBlock()
	}
	p.park()
}

// cannotBlock panics on a blocking call from a continuation.
//
//go:noinline
func (p *Proc) cannotBlock() {
	if p.co == nil {
		panic(fmt.Sprintf("sim: goroutine-free process %q cannot block", p.name))
	}
	panic(fmt.Sprintf("sim: process %q cannot block inside Inline", p.name))
}

// park is yield's switch, also the wait of an Inline chain's owner. The
// parking process runs the dispatch loop itself and keeps running, with no
// switch, when the next process due is p; otherwise it yields that process
// (nil once the run is over) to the driver, which resumes it. An aborted
// process (unwinding in finish) goes straight back to the driver, which is
// waiting in abort.
func (p *Proc) park() {
	var q *Proc
	if !p.aborted {
		if q = p.e.next(); q == p {
			return
		}
	}
	p.co.yield(q)
	if p.aborted {
		panic(procAbort{})
	}
}

// abort unwinds a process that will never be delivered to (stranded, or
// orphaned by a failed run) so its coroutine is freed. Called by the
// driver only, from finish; p's coroutine yields straight back. A
// goroutine-free process has nothing to unwind and is simply retired.
func (p *Proc) abort() {
	p.aborted = true
	if p.co == nil {
		p.e.exit(p)
		return
	}
	p.e.curProc = p.idx
	p.co.next()
	p.e.curProc = noProc
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Rand returns the process's deterministic random stream.
func (p *Proc) Rand() *RNG { return &p.rng }

// Rec returns the engine's span recorder, nil when span tracing is off.
// Instrumentation sites call p.Rec().Emit(...) unconditionally (Emit is
// nil-safe) or guard extra work with p.Rec() != nil.
func (p *Proc) Rec() *trace.Recorder { return p.e.rec }

// Sleep advances the process by d of virtual time. Negative d panics;
// zero d still yields (other events at the same instant run first).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		p.negativeSleep(d)
	}
	p.e.scheduleDeliver(p.e.now+d, p.idx)
	p.yield()
}

// SleepThen is Sleep for a continuation (of a goroutine-free process or
// an Inline chain): fn runs as the next continuation d of virtual time
// from now.
func (p *Proc) SleepThen(d time.Duration, fn func(p *Proc)) {
	if d < 0 {
		p.negativeSleep(d)
	}
	p.then(fn)
	p.e.scheduleDeliver(p.e.now+d, p.idx)
}

// YieldThen is SleepThen(0, fn), a zero-length hold that lets every event
// already due at this instant run before fn, booked without the queue
// when nothing else is due: when the same-instant lane is empty, the queue
// holds no event due now, and the watchdog would let the delivery fire,
// the delivery counts as fired at once. It takes the sequence number it
// would have had, which becomes the firing one (FiringBefore), and counts
// toward Events and the watchdog's budget; YieldThen then reports true,
// and the caller goes on as fn would have. Otherwise it schedules fn as
// SleepThen does and reports false.
func (p *Proc) YieldThen(fn func(p *Proc)) bool {
	p.then(fn)
	e := p.e
	if e.failure != nil || (e.maxEvents > 0 && e.fired >= e.maxEvents) || !e.pq.quietAt(e.now) {
		e.scheduleDeliver(e.now, p.idx)
		return false
	}
	p.cont = nil
	e.seq++
	e.firing, e.firingSince = e.seq, e.now
	e.profs[p.idx].since = e.now
	e.fired++
	return true
}

//go:noinline
func (p *Proc) negativeSleep(d time.Duration) {
	panic(fmt.Sprintf("sim: process %q sleeping negative duration %v", p.name, d))
}

// Retime moves the pending delivery of p's Sleep or SleepThen to at, not
// before now: p wakes, or its continuation runs, at at instead, in the
// order of an event scheduled now. Another process or a callback calls it
// while p sleeps; p must not be blocked, running or finished. The
// delivery it replaces stays queued and is dropped unfired when it comes
// due: p's stale watermark covers every delivery to p scheduled so far,
// and a sleeping p has exactly one pending. So a retime costs one event,
// as the moved sleep would have, and leaves Events, the sampler and the
// watchdog as if the sleep had been for at from the start.
func (p *Proc) Retime(at Time) {
	e := p.e
	if at < e.now || p.waiting || p.done || p.idx == e.curProc {
		p.badRetime(at)
	}
	p.stale = e.seq
	e.scheduleDeliver(at, p.idx)
}

//go:noinline
func (p *Proc) badRetime(at Time) {
	panic(fmt.Sprintf("sim: retime of process %q to %v at %v: not sleeping, or into the past", p.name, at, p.e.now))
}

// Preempt runs the pending continuation of p, a goroutine-free process
// sleeping until now, at once, ahead of the code now running, which is
// not p's: p's delivery is dropped unfired and its continuation runs as
// that delivery would have, as p and counted as an event. A model that
// booked p's delivery ahead, and so later in its instant than the
// per-step delivery it stands in for (Retime), calls it when it learns
// that code running at that instant comes after that delivery.
func (p *Proc) Preempt() {
	e := p.e
	if p.co != nil || p.cont == nil || p.waiting || p.done || p.idx == e.curProc {
		p.badPreempt()
	}
	p.stale = e.seq
	cur := e.curProc
	e.curProc = p.idx
	e.fired++
	e.resumeFunc(p, false)
	e.curProc = cur
}

//go:noinline
func (p *Proc) badPreempt() {
	panic(fmt.Sprintf("sim: preempt of process %q at %v: not a goroutine-free process sleeping", p.name, p.e.now))
}

// blockThen is Block for a continuation: it parks until Wake, and fn runs
// as the next continuation on that delivery.
func (p *Proc) blockThen(fn func(p *Proc)) {
	p.then(fn)
	if cp := p.e.cp; cp != nil {
		cp.BeginWait(p.idx, p.e.now)
	}
	p.waiting = true
}

// then installs fn as p's one pending continuation.
func (p *Proc) then(fn func(p *Proc)) {
	if p.cont != nil || (p.co != nil && !p.inline) {
		p.badThen()
	}
	p.cont = fn
}

//go:noinline
func (p *Proc) badThen() {
	panic(fmt.Sprintf("sim: process %q: continuation on a goroutine process outside Inline or over a pending one", p.name))
}

// Inline runs fn as a chain of continuations of coroutine process p, the
// way a goroutine-free process (SpawnFunc) runs. fn runs at once; every
// continuation it names (SleepThen, Resource.AcquireThen and
// TryAcquireThen) runs inline in the dispatch loop, on the driver or in
// whichever process is parking, with p as the current process. When a
// continuation names no successor the chain is done and Inline returns:
// p's coroutine resumes at that same delivery, with no extra event. The
// events, their sequence numbers, the wakes and the critical-path edges
// are those of the blocking calls the chain stands in for; what goes is
// the coroutine handoff per step, so a chain of any length costs p at
// most one.
//
// Continuations must not block (Sleep, Block, Resource.Acquire, Use); a
// panic in one fails the run under p's name and leaves p parked for the
// run's unwind. Inline panics on a goroutine-free process and when nested.
func (p *Proc) Inline(fn func(p *Proc)) {
	if p.co == nil || p.inline {
		p.badInline()
	}
	p.inline = true
	if fn(p); p.cont != nil {
		p.park()
	}
	p.inline = false
}

//go:noinline
func (p *Proc) badInline() {
	if p.co == nil {
		panic(fmt.Sprintf("sim: Inline on goroutine-free process %q", p.name))
	}
	panic(fmt.Sprintf("sim: nested Inline in process %q", p.name))
}

// Block parks the calling process until another process calls Wake on it.
// It is the building block for external synchronization primitives
// (signals, resources, lock managers, key-value watches). A process that is
// never woken is reported as stranded by Run.
func (p *Proc) Block() {
	if cp := p.e.cp; cp != nil {
		cp.BeginWait(p.idx, p.e.now)
	}
	p.waiting = true
	p.yield()
	if cp := p.e.cp; cp != nil {
		cp.EndWait(p.idx, p.e.now)
	}
}

// Wake schedules delivery of a process parked in Block at the current
// virtual time. Calling Wake on a process that is not blocked (or waking it
// twice) is a programming error; waking a finished process fails the run.
func (p *Proc) Wake() {
	if p.e.cp != nil {
		p.critRelease()
	}
	p.e.scheduleDeliver(p.e.now, p.idx)
}

// critRelease records the release edge of a Wake: from the current
// process (or a kernel callback) to p.
//
//go:noinline
func (p *Proc) critRelease() {
	p.e.cp.Release(p.e.curProc, p.idx, p.e.now)
}

// hash64 is FNV-1a, used to derive per-process RNG streams from names.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
