package sim

// This file is the pending-event queue behind the kernel: a ladder queue —
// a multi-resolution calendar of time buckets — plus a same-instant lane
// beside it.
//
// Why a ladder (DESIGN.md §3h): a heap pays O(log n) sift work per
// operation; the ladder pays amortized O(1) by spreading events into
// buckets so fine that ordering inside one bucket is nearly free. Measured
// against an inlined 4-ary heap it is no slower even at 16 pending events,
// so one queue serves every run size.
//
// Why a lane (DESIGN.md §3h): about a quarter of a paper run's events are
// due at the instant they are scheduled (receive completions, grants,
// wakes). Such an event is later in (at, seq) than every event already
// pending at that instant and earlier than every event at a later one, so
// the engine appends it to a FIFO (pushNow) instead of placing it in the
// ladder, and pop merges the two: the lane's head unless the ladder's
// minimum is before it. The lane drains before the clock moves on. It is a
// ring over an array of its own: a push takes the slot after the tail,
// wrapping to the slots that pops freed at the front, so no event moves
// until every slot holds one, and then the array doubles. A long cascade
// at one instant therefore costs O(1) per event and cannot grow the array
// past twice the most events the lane held at once.
//
// Ordering contract: pop returns pending events in exactly ascending
// (at, seq) for ANY interleaving of pushes and pops, including pushes of
// events earlier than everything pending, as long as lane pushes come in
// ascending (at, seq) order. queue_test.go locks the contract against a
// container/heap reference over tie-heavy randomized workloads.
//
// Structure of the ladder:
//
//   - bottom: the earliest band of events, sorted descending (at, seq) and
//     consumed from the end. Pushes that land inside the bottom's range are
//     84–88% of ladder pushes on the paper workloads (a few far events set
//     wide rung buckets, so short holds fall inside the current band), and
//     they are near-term, so walking in from the end places one by moving
//     about one event.
//   - rungs[0..nr-1]: calendars of time buckets, from coarse (rung 0, whose
//     span abuts the top band) to fine (rung nr-1, covering the imminent
//     range). A push lands in the first rung whose unconsumed span contains
//     its time: one comparison per rung and one divide, O(1).
//   - top: unsorted overflow for events at or beyond topStart (later than
//     every bucketed event). When the rungs drain, the whole top band is
//     spread into a fresh rung 0 sized to its time span.
//
// A refill moves the next non-empty bucket of the deepest rung into bottom
// and sorts it latest first; oversized buckets spanning more than one instant are first
// spread across a new, finer rung (spawn), so sort cost per event stays
// bounded. Every band keeps its backing arrays when it empties: after the
// high-water mark the queue allocates nothing (the steady-state zero-alloc
// contract of DESIGN.md §3c), and bench_test.go's churn benchmark asserts
// 0 B/op.

import "slices"

const (
	// maxRungs bounds spread recursion; a bucket that is still oversized at
	// the deepest rung is sorted directly (correct, just not O(1) for that
	// pathological band).
	maxRungs = 8
	// spawnThreshold is the bucket size above which a refill spreads the
	// bucket across a finer rung instead of sorting it into bottom.
	spawnThreshold = 48
	// minBuckets / maxBuckets clamp the bucket count of a rung; the target
	// is bucketTarget events per bucket for the observed band population.
	minBuckets   = 16
	maxBuckets   = 8192
	bucketTarget = 8
)

// rung is one calendar: nb buckets of width-wide time slices starting at
// start. Buckets before cur have been consumed (or spread) and are empty.
//
// Events live in one shared append-only slab per rung; each bucket is an
// intrusive chain (head/tail plus next links) through it. Per-bucket slices
// would ratchet capacity forever — every band spreads differently, so some
// bucket always outgrows its history — while the slab's high-water mark is
// simply the rung's maximum resident count, which the warm-up of a
// steady-state run reaches once. That is what makes the ladder hold the
// kernel's zero-allocs-in-steady-state contract.
type rung struct {
	start Time
	width Time
	cur   int
	nb    int
	slab  []event // events of this band, insertion order
	next  []int32 // chain link per slab slot (-1 ends a chain)
	head  []int32 // first slab index per bucket (-1 = empty)
	tail  []int32 // last slab index per bucket
	cnt   []int32 // events per bucket
}

// curStart is the lower edge of the rung's unconsumed span.
func (r *rung) curStart() Time { return r.start + Time(r.cur)*r.width }

// reset re-arms the rung for a band of n events, reusing every backing
// array that is large enough and making each one that is not in one go.
func (r *rung) reset(start, width Time, nb, n int) {
	r.start, r.width, r.cur, r.nb = start, width, 0, nb
	if cap(r.slab) < n {
		r.slab = make([]event, 0, n)
		r.next = make([]int32, 0, n)
	}
	r.slab = r.slab[:0]
	r.next = r.next[:0]
	if len(r.head) < nb {
		r.head = make([]int32, nb)
		r.tail = make([]int32, nb)
		r.cnt = make([]int32, nb)
	}
	for i := 0; i < nb; i++ {
		r.head[i], r.tail[i], r.cnt[i] = -1, -1, 0
	}
}

// place inserts ev into its bucket (clamped to the last: the last bucket of
// a rung may span a larger range, and is re-spread on consumption if big).
func (r *rung) place(ev event) {
	b := int((ev.at - r.start) / r.width)
	if b >= r.nb {
		b = r.nb - 1
	}
	r.slab = append(r.slab, ev)
	r.next = append(r.next, -1)
	i := int32(len(r.slab) - 1)
	if t := r.tail[b]; t >= 0 {
		r.next[t] = i
	} else {
		r.head[b] = i
	}
	r.tail[b] = i
	r.cnt[b]++
}

// takeBucket walks bucket b's chain, appending its events to dst in
// insertion order and zeroing the vacated slab slots. The bucket is left
// empty.
func (r *rung) takeBucket(b int, dst []event) []event {
	for i := r.head[b]; i >= 0; i = r.next[i] {
		dst = append(dst, r.slab[i])
		r.slab[i] = event{}
	}
	r.head[b], r.tail[b], r.cnt[b] = -1, -1, 0
	return dst
}

// bucketSpread reports the earliest and latest event time of bucket b,
// which must be non-empty.
func (r *rung) bucketSpread(b int) (mn, mx Time) {
	i := r.head[b]
	mn, mx = r.slab[i].at, r.slab[i].at
	for i = r.next[i]; i >= 0; i = r.next[i] {
		at := r.slab[i].at
		if at < mn {
			mn = at
		}
		if at > mx {
			mx = at
		}
	}
	return mn, mx
}

// eventq is the pending-event queue. The zero value is an empty queue. Not
// safe for concurrent use: only the engine's running code (its driver or
// the process it resumed) touches it.
type eventq struct {
	size int // pending events in the ladder (bands and rungs)

	bottom   []event // earliest band, descending (at, seq): the minimum is last
	top      []event // unsorted overflow: events with at >= topStart
	topStart Time    // 0 before the first transfer: virtual time is never negative
	topMin   Time    // earliest time in top, while top is non-empty
	rungs    [maxRungs]rung
	nr       int // active rungs; rungs[nr-1] is the finest/earliest

	// The same-instant lane: ln events, ascending (at, seq), from lane[lh]
	// on, wrapping past the end of lane to its start. The head and count
	// are int32 so that an Engine with its allocation header stays in its
	// size class (see Engine.live).
	lane   []event
	lh, ln int32
}

// minQueue is the length of the lane's array when pushNow makes it for a
// queue that grow never sized.
const minQueue = 32

// len returns the number of pending events.
func (q *eventq) len() int { return q.size + int(q.ln) }

// grow reserves capacity for n simultaneously pending events (Prealloc) in
// the top band and in the lane: either may hold all of them (the spawns of
// a run sit in the lane until it starts).
func (q *eventq) grow(n int) {
	if n > cap(q.top) {
		q.top = append(make([]event, 0, n), q.top...)
	}
	if n > len(q.lane) {
		q.growLane(n)
	}
}

// pushNow inserts ev, which must be later in (at, seq) than every event in
// the lane: the engine's events due at the current instant, in schedule
// order.
func (q *eventq) pushNow(ev event) {
	if int(q.ln) == len(q.lane) {
		q.growLane(max(2*len(q.lane), minQueue))
	}
	i := q.lh + q.ln
	if int(i) >= len(q.lane) {
		i -= int32(len(q.lane))
	}
	q.lane[i] = ev
	q.ln++
}

// growLane moves the lane's events, in order, to the front of a new array
// of n events, longer than the lane's array.
//
//go:noinline
func (q *eventq) growLane(n int) {
	lane := make([]event, n)
	k := copy(lane, q.lane[q.lh:min(int(q.lh+q.ln), len(q.lane))])
	copy(lane[k:], q.lane[:int(q.ln)-k])
	q.lane, q.lh = lane, 0
}

// push inserts ev into the ladder: the top band, the first rung whose
// unconsumed span contains it, or sorted into bottom.
func (q *eventq) push(ev event) {
	q.size++
	if ev.at >= q.topStart {
		if len(q.top) == 0 || ev.at < q.topMin {
			q.topMin = ev.at
		}
		q.top = append(q.top, ev)
		return
	}
	for i := 0; i < q.nr; i++ {
		r := &q.rungs[i]
		if ev.at >= r.curStart() {
			r.place(ev)
			return
		}
	}
	q.bottomInsert(ev)
}

// pop removes and returns the earliest pending event: the lane's head
// unless the ladder's minimum is before it. The queue must be non-empty.
func (q *eventq) pop() event {
	if q.ln != 0 && q.laneFirst() {
		ev := q.lane[q.lh]
		q.lane[q.lh] = event{} // do not pin fired callbacks
		q.lh++
		if q.ln--; q.ln == 0 || int(q.lh) == len(q.lane) {
			q.lh = 0
		}
		return ev
	}
	q.size--
	if len(q.bottom) == 0 {
		q.refill()
	}
	n := len(q.bottom) - 1
	ev := q.bottom[n]
	q.bottom[n] = event{} // do not pin fired callbacks
	q.bottom = q.bottom[:n]
	return ev
}

// peek returns the earliest pending event without removing it. The queue
// must be non-empty. A peek may prime the bottom band.
func (q *eventq) peek() event {
	if q.ln != 0 && q.laneFirst() {
		return q.lane[q.lh]
	}
	return *q.peekMain()
}

// laneFirst reports whether the earliest pending event is the head of the
// lane, which must be non-empty: the two-way merge of pop and peek. A top
// band that is the whole ladder and starts after the lane's head is left
// unspread: spread while a run's spawns wait in the lane, rung 0 would fit
// the first few holds, and each shorter hold would then be a bottom insert.
func (q *eventq) laneFirst() bool {
	if q.size == 0 || (q.nr == 0 && len(q.bottom) == 0 && q.lane[q.lh].at < q.topMin) {
		return true
	}
	return !q.peekMain().before(&q.lane[q.lh])
}

// quietAt reports whether no event is pending at now, the current
// instant: the lane is empty and the ladder's earliest event is later.
func (q *eventq) quietAt(now Time) bool {
	switch {
	case q.ln != 0:
		return false
	case q.size == 0:
		return true
	case q.nr == 0 && len(q.bottom) == 0:
		return now < q.topMin // the top band alone, left unspread (laneFirst)
	}
	return now < q.peekMain().at
}

// peekMain returns the ladder's earliest event, priming the bottom band.
// The ladder must be non-empty.
func (q *eventq) peekMain() *event {
	if len(q.bottom) == 0 {
		q.refill()
	}
	return &q.bottom[len(q.bottom)-1]
}

// reset empties the queue, zeroes every slot (so no callback outlives the
// run), and keeps all backing arrays for reuse.
func (q *eventq) reset() {
	clear(q.bottom)
	q.bottom = q.bottom[:0]
	clear(q.top)
	q.top = q.top[:0]
	for i := 0; i < q.nr; i++ {
		r := &q.rungs[i]
		clear(r.slab)
		r.slab = r.slab[:0]
		r.next = r.next[:0]
		for b := 0; b < r.nb; b++ {
			r.head[b], r.tail[b], r.cnt[b] = -1, -1, 0
		}
	}
	q.nr = 0
	q.size = 0
	q.topStart = 0
	if q.ln != 0 { // a killed run's events, wrapped or not
		clear(q.lane)
	}
	q.lh, q.ln = 0, 0
}

// bottomInsert sorted-inserts ev into the descending bottom band: it
// appends and walks back from the end, moving each event before ev up one
// slot. Most of the ladder's pushes land here (84–88% on the paper
// workloads) and they are near-term, so a walk moves about one event.
func (q *eventq) bottomInsert(ev event) {
	q.bottom = append(q.bottom, ev)
	i := len(q.bottom) - 1
	for ; i > 0 && q.bottom[i-1].before(&ev); i-- {
		q.bottom[i] = q.bottom[i-1]
	}
	q.bottom[i] = ev
}

// refill loads the next band of events into bottom, sorted descending: the
// next non-empty bucket of the deepest rung, spreading oversized
// multi-instant buckets across a finer rung first, or — when every rung has
// drained — the top band spread into a fresh rung 0. The queue must be
// non-empty.
func (q *eventq) refill() {
	for {
		if q.nr == 0 {
			q.transfer()
			continue
		}
		r := &q.rungs[q.nr-1]
		for r.cur < r.nb && r.cnt[r.cur] == 0 {
			r.cur++
		}
		if r.cur == r.nb {
			// A rung is retired only once truly empty. Buckets behind the
			// cursor cannot be repopulated (push admits only
			// at >= curStart(), which maps at or ahead of the cursor), so a
			// non-zero count here means the no-hole invariant broke — fail
			// loudly rather than drop events.
			for b := 0; b < r.nb; b++ {
				if r.cnt[b] != 0 {
					panic("sim: eventq rung retired with pending events")
				}
			}
			q.nr-- // arrays kept for the next band
			continue
		}
		if int(r.cnt[r.cur]) > spawnThreshold && q.nr < maxRungs {
			if mn, mx := r.bucketSpread(r.cur); mn != mx {
				q.spawn(r)
				continue
			}
		}
		q.bottom = r.takeBucket(r.cur, q.bottom)
		r.cur++
		// The chain is in insertion order, nearly ascending: sort it that
		// way, which is cheap, then flip it.
		sortEvents(q.bottom)
		slices.Reverse(q.bottom)
		return
	}
}

// spawn spreads the current bucket of parent across a new, finer rung
// covering the bucket's FULL nominal span [bucketStart, bucketStart+width),
// ceil-divided so the child's last bucket edge is at or past the parent's.
// Sizing the child to the events' observed span instead would leave a
// coverage hole at the tail of the bucket: a later push inside the hole is
// too late for the child's nominal range but too early for the parent
// (whose cursor has moved past the bucket), and once the child's cursor
// reaches the end the clamped placement lands BEHIND it — the event would
// be silently dropped when the drained rung is retired. Full-span children
// keep the no-hole invariant: every event admitted by push's
// at >= curStart() check maps to a bucket at or ahead of the cursor.
func (q *eventq) spawn(parent *rung) {
	start := parent.curStart()
	n := int(parent.cnt[parent.cur])
	nb := n / bucketTarget
	if nb < minBuckets {
		nb = minBuckets
	} else if nb > maxBuckets {
		nb = maxBuckets
	}
	child := &q.rungs[q.nr]
	q.nr++
	child.reset(start, (parent.width-1)/Time(nb)+1, nb, n)
	b := parent.cur
	for i := parent.head[b]; i >= 0; i = parent.next[i] {
		child.place(parent.slab[i])
		parent.slab[i] = event{}
	}
	parent.head[b], parent.tail[b], parent.cnt[b] = -1, -1, 0
	parent.cur++
}

// transfer spreads the whole top band into a fresh rung 0 sized to its time
// span and advances topStart past it. Called only when no rungs remain; the
// band is non-empty because the queue is.
func (q *eventq) transfer() {
	mn, mx := q.top[0].at, q.top[0].at
	for i := 1; i < len(q.top); i++ {
		at := q.top[i].at
		if at < mn {
			mn = at
		}
		if at > mx {
			mx = at
		}
	}
	nb := len(q.top) / bucketTarget
	if nb < minBuckets {
		nb = minBuckets
	} else if nb > maxBuckets {
		nb = maxBuckets
	}
	width := (mx-mn)/Time(nb) + 1
	r := &q.rungs[0]
	q.nr = 1
	r.reset(mn, width, nb, len(q.top))
	for _, ev := range q.top {
		r.place(ev)
	}
	for i := range q.top {
		q.top[i] = event{}
	}
	q.top = q.top[:0]
	q.topStart = mn + Time(nb)*width
}

// sortEvents sorts a band ascending (at, seq) without allocating: insertion
// sort for small bands, median-of-three quicksort above. (sort.Slice would
// allocate its reflect-based swapper on every refill.)
func sortEvents(a []event) {
	for len(a) > 24 {
		// Median-of-three pivot, moved to the end.
		m := len(a) / 2
		hi := len(a) - 1
		if a[m].before(&a[0]) {
			a[m], a[0] = a[0], a[m]
		}
		if a[hi].before(&a[0]) {
			a[hi], a[0] = a[0], a[hi]
		}
		if a[hi].before(&a[m]) {
			a[hi], a[m] = a[m], a[hi]
		}
		a[m], a[hi-1] = a[hi-1], a[m]
		pivot := a[hi-1]
		i, j := 0, hi-1
		for {
			for i++; a[i].before(&pivot); i++ {
			}
			for j--; pivot.before(&a[j]); j-- {
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		a[i], a[hi-1] = a[hi-1], a[i]
		// Recurse into the smaller half, loop on the larger.
		if i < len(a)-i {
			sortEvents(a[:i])
			a = a[i+1:]
		} else {
			sortEvents(a[i+1:])
			a = a[:i]
		}
	}
	for i := 1; i < len(a); i++ {
		ev := a[i]
		j := i - 1
		for j >= 0 && ev.before(&a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = ev
	}
}
