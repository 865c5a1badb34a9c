package lustre

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// noiseCycles is how many gap-and-burst cycles a noise process books at
// once (noise.book), and the length of its ring of drawn cycles. On the
// paper-figs protocol 32 cycles cut the noise's events to about a tenth;
// a longer booking saves little more, since most bookings end early at a
// workflow request (DESIGN.md §3c).
const noiseCycles = 32

// maxBursts ends a noise process that is never stopped.
const maxBursts = 1_000_000

// noiseNames are the noise processes' names by OST, made once: a
// process's name seeds its random stream.
var noiseNames = func() (names [16]string) {
	for i := range names {
		names[i] = fmt.Sprintf("lustre-noise-%d", i)
	}
	return names
}()

func noiseName(i int) string {
	if i < len(noiseNames) {
		return noiseNames[i]
	}
	return fmt.Sprintf("lustre-noise-%d", i)
}

// noises is the engines' free list of noise states, lent for a run
// (sim.FreeList.Lend): a warmed engine spawns its noise without
// allocating a state.
var noises = sim.NewFreeList[noise]()

// StartNoise spawns background-interference processes, one per OST, that
// keep ~BackgroundLoad of each OST busy with bursty foreign I/O: idle gaps
// and busy bursts of exponential length, bursts of mean 2 ms. Call once
// per engine before Run if interference is wanted, and StopNoise when the
// measured workload has drained. The noise states are lent by the
// cluster's engine: the instance is valid until the engine's next Reset.
func (f *FS) StartNoise() { f.startNoise(2 * time.Millisecond) }

// startNoise is StartNoise with bursts of the given mean, the gaps sized
// to hit the target utilization.
func (f *FS) startNoise(burst time.Duration) {
	if f.params.BackgroundLoad <= 0 {
		return
	}
	gap := time.Duration(float64(burst) * (1 - f.params.BackgroundLoad) / f.params.BackgroundLoad)
	e := f.cl.Engine()
	for i, o := range f.osts {
		nz := noises.Lend(e)
		step := nz.step
		if step == nil {
			step = nz.advance
		}
		*nz = noise{f: f, srv: o.srv, gap: gap, burst: burst, step: step}
		o.noise = nz
		o.srv.Watch(nz)
		nz.p = e.SpawnFunc(noiseName(i), step)
	}
}

// StopNoise asks noise processes to exit at the end of their current or
// next burst, as the per-burst loop does: it checks the request after
// each burst. A booked process is retimed to that burst's end.
func (f *FS) StopNoise() {
	f.noiseStop = true
	for _, o := range f.osts {
		if nz := o.noise; nz != nil && nz.booked {
			nz.windDown()
		}
	}
}

// noise is one OST's background-interference process: a goroutine-free
// state machine that sleeps an exponential gap, queues at the OST, holds
// it for an exponential burst, and repeats until StopNoise (checked after
// each burst) or maxBursts. Its timeline is the per-burst loop's
// (TestNoiseMatchesGoroutineLoop keeps that loop as the reference), but
// it spends an event on a step only where a workflow request can meet it.
// Whenever a burst ends with the OST idle and nobody queued, the process
// books its next cycles at once (book): it draws them, in the loop's
// order, into its ring, and sleeps until the last booked burst ends. The
// OST's watcher (Touch) settles the booked steps that whoever touches the
// OST comes after onto its books (HoldFrom, ReleaseAt), and a request for
// the OST ends the booking there (unbook): the process goes back to one
// event per step from the cycle in progress, and keeps the cycles drawn
// after it in the ring. DESIGN.md §3c has the tie rules.
type noise struct {
	f          *FS
	srv        *sim.Resource
	p          *sim.Proc
	gap, burst time.Duration // means of the exponential draws
	phase      noisePhase
	bursts     int        // bursts ended, booked ones once settled
	cur        noiseCycle // the cycle run one event per step

	// ring holds the cycles drawn and not yet begun: n of them from head,
	// in draw order.
	ring    [noiseCycles]noiseCycle
	head, n int

	// The booking, while booked: the first k cycles of the ring, made at
	// an event with watermark mark. Its steps are the transitions of
	// those cycles, gap ends and burst ends in turn; the first `passed`
	// are on the OST's books, the last of them at passedAt (the booking's
	// start while none is).
	booked   bool
	aside    bool // the booking's end stepped aside in its instant
	k        int
	passed   int
	passedAt sim.Time
	mark     int64

	// A step that unbook retimed: due at `due`, later in its instant than
	// the per-step delivery it stands in for, which was scheduled at
	// vfrom.
	late       bool
	due, vfrom sim.Time

	step func(p *sim.Proc) // advance, bound once so no event allocates
}

// noiseCycle is one drawn cycle: an idle gap, then a busy burst.
type noiseCycle struct{ gap, burst time.Duration }

type noisePhase uint8

const (
	noiseStart  noisePhase = iota // first delivery, at spawn time
	noiseGap                      // sleeping out the idle gap
	noiseQueued                   // waiting for the OST
	noiseBusy                     // holding the OST for the burst
	noiseBooked                   // sleeping out a booking
	noiseEnd                      // wound down: the process ends
)

// advance runs the continuation due in the current phase. Each phase ends
// where the goroutine loop it replaces yielded, so the events, their
// order and the random draws (gap, then burst) are the loop's, but for
// the steps a booking stands in for.
func (nz *noise) advance(p *sim.Proc) {
	nz.late = false
	switch nz.phase {
	case noiseStart:
		// Background for the critical-path extractor: the run is over
		// when the workflow finishes, not when noise winds down.
		p.CritBackground()
		p.CritBegin("lustre", "background_noise", trace.ClassDetail)
		nz.next(p)
	case noiseGap:
		nz.phase = noiseQueued
		nz.srv.AcquireThen(p, 1, nz.step)
	case noiseQueued:
		nz.phase = noiseBusy
		p.SleepThen(nz.cur.burst, nz.step)
	case noiseBusy:
		nz.srv.Release(1)
		if nz.bursts++; nz.f.noiseStop || nz.bursts == maxBursts {
			return // no successor: the process ends now
		}
		nz.next(p)
	case noiseBooked:
		// The booked delivery was scheduled when the booking was made,
		// so among the events due now it fires before the per-step one
		// it stands in for would have: when others are due, it steps
		// aside to the end of the instant, and the watcher settles any
		// of them that touches the OST.
		if !nz.aside && !nz.f.cl.Engine().Quiet() {
			nz.aside = true
			p.SleepThen(0, nz.step)
			return
		}
		nz.aside = false
		nz.settle(true)
		nz.consume(nz.k)
		nz.booked = false
		if nz.f.noiseStop || nz.bursts == maxBursts {
			return
		}
		nz.next(p)
	case noiseEnd:
	}
}

// next goes on from a burst's end, or the start: it books the next cycles
// when the OST is idle with nobody queued, and otherwise sleeps out the
// next cycle's gap.
func (nz *noise) next(p *sim.Proc) {
	if nz.srv.InUse() == 0 && nz.srv.QueueLen() == 0 && nz.book(p) {
		return
	}
	nz.cur = nz.take()
	nz.phase = noiseGap
	p.SleepThen(nz.cur.gap, nz.step)
}

// book books the next cycles, up to noiseCycles, and reports whether it
// did. A cycle with a zero gap or burst is never booked, nor any after
// it: each booked step must fall strictly after the one before for the
// tie rules to hold. After StopNoise only the one cycle the loop would
// still run is booked.
func (nz *noise) book(p *sim.Proc) bool {
	k := min(noiseCycles, maxBursts-nz.bursts)
	if nz.f.noiseStop {
		k = 1
	}
	for nz.n < k {
		nz.draw()
	}
	end := p.Now()
	for i := 0; i < k; i++ {
		c := nz.cycle(i)
		if c.gap == 0 || c.burst == 0 {
			k = i
			break
		}
		end += c.gap + c.burst
	}
	if k == 0 {
		return false
	}
	nz.booked, nz.k, nz.passed, nz.passedAt = true, k, 0, p.Now()
	nz.mark = nz.f.cl.Engine().Watermark()
	nz.phase = noiseBooked
	p.SleepThen(end-p.Now(), nz.step)
	return true
}

// Touch is the OST's watcher (sim.Resource's Watch). During a booking it
// settles the steps that the code touching the OST comes after, and an
// acquire ends the booking. A step that unbook retimed and that this code
// comes after runs first (sim.Proc.Preempt).
func (nz *noise) Touch(acquire bool) {
	switch {
	case nz.booked:
		nz.settle(false)
		if acquire {
			nz.unbook(nz.f.noiseStop)
		}
	case nz.late && nz.due == nz.p.Now() && nz.f.cl.Engine().ScheduledAfter(nz.vfrom):
		nz.late = false
		nz.p.Preempt()
	}
}

// settle puts the booking's steps that are past onto the OST's books: the
// grant of each burst begun and the release of each ended. A step due
// now is past when the running code comes after it (before), or, with
// all, whenever: the booking's own end runs.
func (nz *noise) settle(all bool) {
	now := nz.p.Now()
	for nz.passed < 2*nz.k {
		j := nz.passed + 1
		t := nz.passedAt + nz.span(j)
		if t > now || (t == now && !all && !nz.before(j)) {
			return
		}
		if j%2 == 1 {
			nz.srv.HoldFrom(1, t)
		} else {
			nz.srv.ReleaseAt(1, t)
		}
		nz.passed, nz.passedAt = j, t
	}
}

// span is the length of the booking's step j (from 1): the gap of its
// cycle when j is odd, the burst when even.
func (nz *noise) span(j int) time.Duration {
	if c := nz.cycle((j - 1) / 2); j%2 == 1 {
		return c.gap
	} else {
		return c.burst
	}
}

// before reports whether the per-step delivery of the booking's step j,
// due now, fires before the code running. The delivery of step 1 would
// have been scheduled by the event that made the booking, so the code
// comes after it when it was scheduled after that event's watermark. The
// delivery of a later step would have been scheduled by the step before,
// at its instant: the code comes after it when it was scheduled after
// that instant (sim.Engine.ScheduledAfter).
func (nz *noise) before(j int) bool {
	e := nz.f.cl.Engine()
	if j == 1 {
		return !e.FiringBefore(nz.mark)
	}
	return e.ScheduledAfter(nz.passedAt)
}

// unbook ends the booking at the current point, its past steps settled:
// the process goes back to one event per step from the cycle in
// progress, its next step retimed to that step's instant. When the
// booking's end is past, the process has wound down if it was stopped
// before it, and is otherwise in the next cycle's gap.
func (nz *noise) unbook(stopped bool) {
	nz.booked, nz.aside = false, false
	nz.consume(nz.passed / 2)
	at := nz.passedAt
	if nz.passed == 2*nz.k && (stopped || nz.bursts == maxBursts) {
		nz.phase = noiseEnd
		nz.p.Retime(at)
		return
	}
	nz.cur = nz.take()
	next := at + nz.cur.gap
	nz.phase = noiseGap
	if nz.passed%2 == 1 { // mid-burst: the OST is the noise's until its end
		next = at + nz.cur.burst
		nz.phase = noiseBusy
	}
	nz.late, nz.due, nz.vfrom = true, next, at
	nz.p.Retime(next)
}

// windDown retimes a booked process to the end of the burst the loop
// would end on, now that StopNoise is called: the current cycle's. When
// the booking's end is past, the loop went on to its next cycle before
// the stop, and the process goes back to one event per step there.
func (nz *noise) windDown() {
	nz.settle(false)
	if nz.passed == 2*nz.k {
		nz.unbook(false)
		return
	}
	i := nz.passed / 2 // the cycle in progress, from 0
	if i == nz.k-1 {
		return
	}
	nz.k = i + 1
	end := nz.passedAt + nz.cycle(i).burst
	if nz.passed%2 == 0 {
		end += nz.cycle(i).gap
	}
	nz.p.Retime(end)
}

// cycle returns the ring's cycle i, from its head.
func (nz *noise) cycle(i int) *noiseCycle {
	return &nz.ring[(nz.head+i)%noiseCycles]
}

// draw draws the next cycle into the ring: its gap, then its burst.
func (nz *noise) draw() {
	r := nz.p.Rand()
	c := nz.cycle(nz.n)
	c.gap = r.Exp(nz.gap)
	c.burst = r.Exp(nz.burst)
	nz.n++
}

// take removes the next cycle from the ring, drawing it first when the
// ring is empty.
func (nz *noise) take() noiseCycle {
	if nz.n == 0 {
		nz.draw()
	}
	c := *nz.cycle(0)
	nz.drop(1)
	return c
}

// consume drops the ring's first k cycles, booked ones whose bursts have
// ended, and counts their bursts.
func (nz *noise) consume(k int) {
	nz.drop(k)
	nz.bursts += k
}

// drop drops the ring's first k cycles.
func (nz *noise) drop(k int) {
	nz.head = (nz.head + k) % noiseCycles
	nz.n -= k
}
