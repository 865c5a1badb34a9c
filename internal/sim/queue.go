package sim

// This file is the pending-event queue behind the kernel: an adaptive
// two-mode structure that starts as the inlined 4-ary min-heap (exactly the
// PR 2 kernel) and migrates to a ladder queue — a multi-resolution calendar
// of time buckets — once the pending set grows past ladderThreshold events,
// plus a same-instant lane beside either mode.
//
// Why two modes (DESIGN.md §3h): the heap pays O(log n) sift work per
// operation, which is unbeatable below ~1k pending events but dominates the
// kernel on large pending sets (the 1024-pair ensembles,
// BenchmarkScaleEvents). The ladder pays amortized O(1) per operation by
// spreading events into buckets so fine that ordering inside one bucket is
// nearly free. Below the threshold the ladder's constant factors lose, so
// small paper-sized runs keep the heap bit-for-bit.
//
// Why a lane (DESIGN.md §3h): about a quarter of a paper run's events are
// due at the instant they are scheduled (receive completions, grants,
// wakes). Such an event is later in (at, seq) than every event already
// pending at that instant and earlier than every event at a later one, so
// the engine appends it to a FIFO (pushNow) instead of sifting it through
// the main queue, and pop merges the two: the lane's head unless the main
// queue's minimum is before it. The lane drains before the clock moves on.
// Its slots are a share of the array grow reserves, never an allocation of
// their own: when the lane is full an event goes to the main queue, which
// keeps the merge exact, and when the main queue needs the slots it takes
// them back.
//
// Ordering contract: pop returns pending events in exactly ascending
// (at, seq) — the same total order the heap yields — for ANY interleaving
// of pushes and pops, including pushes of events earlier than everything
// pending, as long as lane pushes come in ascending (at, seq) order. Every
// mode therefore produces identical timelines, and neither the mode switch
// nor the lane is visible to the engine. queue_test.go locks the contract
// against a container/heap reference over tie-heavy randomized workloads.
//
// Structure of the ladder mode:
//
//   - bottom: the earliest band of events, sorted ascending (at, seq) and
//     consumed from the front (bpos). Pushes that land inside the bottom's
//     range are sorted-inserted (binary search + copy) — they are rare and
//     near the front, because the engine never schedules into the past.
//   - rungs[0..nr-1]: calendars of time buckets, from coarse (rung 0, whose
//     span abuts the top band) to fine (rung nr-1, covering the imminent
//     range). A push lands in the first rung whose unconsumed span contains
//     its time: one comparison per rung and one divide, O(1).
//   - top: unsorted overflow for events at or beyond topStart (later than
//     every bucketed event). When the rungs drain, the whole top band is
//     spread into a fresh rung 0 sized to its time span.
//
// A refill moves the next non-empty bucket of the deepest rung into bottom
// and sorts it; oversized buckets spanning more than one instant are first
// spread across a new, finer rung (spawn), so sort cost per event stays
// bounded. Every band keeps its backing arrays when it empties: after the
// high-water mark the ladder allocates nothing (the steady-state zero-alloc
// contract of DESIGN.md §3c), and bench_test.go's churn benchmarks assert
// 0 B/op across both modes.

const (
	// ladderThreshold is the pending-event count at which a queue migrates
	// from heap to ladder mode. Measured on BenchmarkScaleEvents (see
	// DESIGN.md §3h): the ladder wins clearly at 100k+ pending, is near par
	// at ~1k, and loses below — 1024 keeps every paper-sized run on the
	// exact PR 2 heap.
	ladderThreshold = 1024
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

// minTime is the topStart sentinel before the first transfer: every event
// routes to the top band (virtual time is never negative).
const minTime = Time(-1 << 62)

// rung is one calendar: nb buckets of width-wide time slices starting at
// start. Buckets before cur have been consumed (or spread) and are empty.
//
// Events live in one shared append-only slab per rung; each bucket is an
// intrusive chain (head/tail plus next links) through it. Per-bucket slices
// would ratchet capacity forever — every band spreads differently, so some
// bucket always outgrows its history — while the slab's high-water mark is
// simply the rung's maximum resident count, which the warm-up of a
// steady-state run (or Prealloc) reaches once. That is what makes ladder
// mode hold the kernel's zero-allocs-in-steady-state contract.
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

// reset re-arms the rung for a new band, reusing every backing array.
func (r *rung) reset(start, width Time, nb int) {
	r.start, r.width, r.cur, r.nb = start, width, 0, nb
	r.slab = r.slab[:0]
	r.next = r.next[:0]
	for len(r.head) < nb {
		r.head = append(r.head, -1)
		r.tail = append(r.tail, -1)
		r.cnt = append(r.cnt, 0)
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

// eventq is the adaptive pending-event queue. The zero value is an empty
// queue in heap mode. Not safe for concurrent use: only the goroutine
// holding the engine's baton touches it.
type eventq struct {
	heap   []event // heap-mode storage (donated to top on migration)
	size   int     // pending events in the main queue, both modes
	thresh int     // migration threshold; 0 = ladderThreshold (test hook)

	bottom   []event // earliest band, ascending (at, seq)
	bpos     int     // bottom consumption cursor
	top      []event // unsorted overflow: events with at >= topStart
	topStart Time
	rungs    [maxRungs]rung
	nr       int // active rungs; rungs[nr-1] is the finest/earliest

	// buf is the heap-mode array: the heap in buf[:split] and the
	// same-instant lane's slots in buf[split:], which hold its events,
	// ascending (at, seq), in buf[lh:lt]. When the heap fills its share
	// it reclaims the lane's (split = len(buf)), and the lane takes it
	// back once the heap has shrunk (laneRoom); in ladder mode the top
	// band does the same. The indices are int32 so that an Engine with
	// its allocation header still fits the 1536-byte size class (see
	// Engine.live).
	buf    []event
	split  int32
	lh, lt int32
	ladder bool // ladder mode active (sticky until reset)
}

// minQueue is the length of the array a queue that grow never sized makes
// on its first push.
const minQueue = 32

// len returns the number of pending events.
func (q *eventq) len() int { return q.size + int(q.lt-q.lh) }

// grow reserves capacity for n simultaneously pending events (Prealloc).
// In heap mode it makes buf n events long: a quarter for the lane, the
// rest for the heap, whose slice is capped at its share so an append
// never runs into the lane. The split costs the main queue nothing it
// would need: an event in the lane is one the heap would otherwise hold,
// a full lane hands events to the heap, and a full heap reclaims the lane.
// On migration the heap's share becomes the top band.
func (q *eventq) grow(n int) {
	if q.ladder {
		if n > cap(q.top) {
			grown := make([]event, len(q.top), n)
			copy(grown, q.top)
			q.top = grown
		}
		return
	}
	if n <= len(q.buf) {
		return
	}
	buf := make([]event, n)
	split := max(n-n/4, len(q.heap))
	copy(buf, q.heap)
	lt := split + copy(buf[split:], q.buf[q.lh:q.lt])
	q.buf, q.heap = buf, buf[:len(q.heap):split]
	q.split, q.lh, q.lt = int32(split), int32(split), int32(lt)
}

// pushNow inserts ev, which must be later in (at, seq) than every event in
// the lane: the engine's events due at the current instant, in schedule
// order. When the lane has no room ev goes to the main queue, which keeps
// pop's merge exact.
func (q *eventq) pushNow(ev event) {
	if int(q.lt) == len(q.buf) {
		q.pushNowFull(ev)
		return
	}
	q.buf[q.lt] = ev
	q.lt++
}

// pushNowFull is pushNow's path when the lane has no room at its end.
func (q *eventq) pushNowFull(ev event) {
	if !q.laneRoom() {
		q.push(ev)
		return
	}
	q.buf[q.lt] = ev
	q.lt++
}

// laneRoom makes room at the end of a lane with none, and reports whether
// it could: it moves the lane's events to the front of its slots, or
// takes the lane's share of buf back from the heap (or the top band it
// became) once that has shrunk to half of buf, or makes buf on a queue's
// first push.
func (q *eventq) laneRoom() bool {
	if int(q.split) < len(q.buf) {
		if q.lh == q.split {
			return false // full
		}
		n := int32(copy(q.buf[q.split:], q.buf[q.lh:q.lt]))
		clear(q.buf[q.split+n : q.lt])
		q.lh, q.lt = q.split, q.split+n
		return true
	}
	k := len(q.buf) / 4
	split := len(q.buf) - k
	switch {
	case q.buf == nil:
		q.grow(minQueue)
		return true
	case k == 0:
		return false
	case !q.ladder:
		if len(q.heap) > split-k {
			return false
		}
		q.heap = q.heap[:len(q.heap):split]
	case sameArray(q.top, q.buf):
		// The top band still fills buf's heap share.
		if len(q.top) > split-k {
			return false
		}
		q.top = q.top[:len(q.top):split]
	}
	// Otherwise the top band has an array of its own, and buf is free.
	q.split, q.lh, q.lt = int32(split), int32(split), int32(split)
	return true
}

// push inserts ev.
func (q *eventq) push(ev event) {
	q.size++
	if !q.ladder {
		if len(q.heap) == cap(q.heap) {
			q.makeRoom()
		}
		q.heap = heapPush(q.heap, ev)
		th := q.thresh
		if th == 0 {
			th = ladderThreshold
		}
		if len(q.heap) > th {
			q.migrate()
		}
		return
	}
	q.enqueue(ev)
}

// makeRoom gives a full heap room for one more event: the lane's slots,
// its events moving into the heap (any event may wait in the main queue),
// or, failing that, a buf twice as long.
//
//go:noinline
func (q *eventq) makeRoom() {
	if int(q.split) < len(q.buf) {
		// The heap fills buf[:split]: the i-th lane event moved lands at
		// split+i, never past a slot not yet read.
		lh, lt := q.lh, q.lt
		q.heap = q.buf[:len(q.heap)]
		for i := lh; i < lt; i++ {
			q.heap = heapPush(q.heap, q.buf[i])
		}
		clear(q.buf[q.split+lt-lh : lt])
		q.size += int(lt - lh)
		q.split = int32(len(q.buf))
		q.lh, q.lt = q.split, q.split
	}
	if len(q.heap) == cap(q.heap) {
		q.grow(max(2*len(q.buf), minQueue))
	}
}

// pop removes and returns the earliest pending event: the lane's head
// unless the main queue's minimum is before it. The queue must be
// non-empty.
func (q *eventq) pop() event {
	if q.lh != q.lt && q.laneFirst() {
		ev := q.buf[q.lh]
		q.buf[q.lh] = event{} // do not pin fired callbacks
		if q.lh++; q.lh == q.lt {
			q.lh, q.lt = q.split, q.split
		}
		return ev
	}
	q.size--
	if !q.ladder {
		var top event
		top, q.heap = heapPop(q.heap)
		return top
	}
	if q.bpos >= len(q.bottom) {
		q.refill()
	}
	ev := q.bottom[q.bpos]
	q.bottom[q.bpos] = event{} // do not pin fired callbacks
	q.bpos++
	if q.bpos == len(q.bottom) {
		q.bottom = q.bottom[:0]
		q.bpos = 0
	}
	return ev
}

// peek returns the earliest pending event without removing it. The queue
// must be non-empty. In ladder mode a peek may prime the bottom band.
func (q *eventq) peek() event {
	if q.lh != q.lt && q.laneFirst() {
		return q.buf[q.lh]
	}
	return q.peekMain()
}

// laneFirst reports whether the earliest pending event is the head of the
// lane, which must be non-empty: the two-way merge of pop and peek.
func (q *eventq) laneFirst() bool {
	if q.size == 0 {
		return true
	}
	if !q.ladder {
		return !q.heap[0].before(&q.buf[q.lh])
	}
	m := q.peekMain()
	return !m.before(&q.buf[q.lh])
}

// peekMain is peek over the main queue alone, which must be non-empty.
func (q *eventq) peekMain() event {
	if !q.ladder {
		return q.heap[0]
	}
	if q.bpos >= len(q.bottom) {
		q.refill()
	}
	return q.bottom[q.bpos]
}

// reset empties the queue, zeroes every slot (so no callback outlives the
// run), keeps all backing arrays for reuse, and reverts to heap mode with
// the lane holding its share of buf.
func (q *eventq) reset() {
	for i := range q.heap {
		q.heap[i] = event{}
	}
	q.heap = q.heap[:0]
	for i := range q.bottom {
		q.bottom[i] = event{}
	}
	q.bottom = q.bottom[:0]
	q.bpos = 0
	for i := range q.top {
		q.top[i] = event{}
	}
	q.top = q.top[:0]
	for i := 0; i < q.nr; i++ {
		r := &q.rungs[i]
		for j := range r.slab {
			r.slab[j] = event{}
		}
		r.slab = r.slab[:0]
		r.next = r.next[:0]
		for b := 0; b < r.nb; b++ {
			r.head[b], r.tail[b], r.cnt[b] = -1, -1, 0
		}
	}
	q.nr = 0
	q.size = 0
	clear(q.buf[q.lh:q.lt])
	if q.ladder {
		q.ladder = false
		// The migration donated buf's heap share to the top band, which
		// may have outgrown it into an array of its own since. The larger
		// array backs the heap and the lane from now on, so the next
		// run's heap phase keeps its capacity; the top band keeps another.
		other := q.heap // the top band's array before the migration
		if !sameArray(q.top, q.buf) {
			clear(q.buf) // stale copies of the events the top band moved
			other = q.top
			if cap(q.top) > len(q.buf) {
				other, q.buf = q.buf, q.top[:cap(q.top)]
			}
		}
		q.top = other[:0]
	}
	split := len(q.buf) - len(q.buf)/4
	q.heap = q.buf[:0:split]
	q.split, q.lh, q.lt = int32(split), int32(split), int32(split)
}

// sameArray reports whether a and b share a backing array.
func sameArray(a, b []event) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// migrate switches the queue from heap to ladder mode, donating the heap
// array to the top band (heap order is irrelevant there: the band is sorted
// as it is spread into rungs and bottom).
func (q *eventq) migrate() {
	q.ladder = true
	q.heap, q.top = q.top[:0], q.heap
	q.topStart = minTime
	q.bpos = 0
}

// enqueue inserts ev in ladder mode: top band, first rung whose unconsumed
// span contains it, or sorted into bottom.
func (q *eventq) enqueue(ev event) {
	if ev.at >= q.topStart {
		if len(q.top) == cap(q.top) {
			q.topRoom()
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

// topRoom gives a full top band that still fills buf's heap share (the
// migration donated it) the lane's slots, its events moving into the
// ladder, as makeRoom does for the heap.
//
//go:noinline
func (q *eventq) topRoom() {
	if int(q.split) == len(q.buf) || cap(q.top) != int(q.split) || !sameArray(q.top, q.buf) {
		return
	}
	lh, lt := q.lh, q.lt
	q.top = q.buf[:len(q.top)]
	q.split = int32(len(q.buf))
	q.lh, q.lt = q.split, q.split
	// Appends to the top band land at the old split and on, never past a
	// lane slot not yet read.
	for i := lh; i < lt; i++ {
		q.size++
		q.enqueue(q.buf[i])
	}
	clear(q.buf[len(q.top):lt])
}

// bottomInsert sorted-inserts ev into the pending run bottom[bpos:]. The
// engine never schedules before the clock, so the insertion point is at or
// near bpos; the binary search keeps pathological interleavings correct.
func (q *eventq) bottomInsert(ev event) {
	if len(q.bottom) == cap(q.bottom) && q.bpos > 0 {
		// Compact the consumed prefix instead of growing the array.
		n := copy(q.bottom, q.bottom[q.bpos:])
		for i := n; i < len(q.bottom); i++ {
			q.bottom[i] = event{}
		}
		q.bottom = q.bottom[:n]
		q.bpos = 0
	}
	lo, hi := q.bpos, len(q.bottom)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.bottom[mid].before(&ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.bottom = append(q.bottom, event{})
	copy(q.bottom[lo+1:], q.bottom[lo:])
	q.bottom[lo] = ev
}

// refill loads the next band of events into bottom, sorted: the next
// non-empty bucket of the deepest rung, spreading oversized multi-instant
// buckets across a finer rung first, or — when every rung has drained —
// the top band spread into a fresh rung 0. The queue must be non-empty.
func (q *eventq) refill() {
	q.bottom = q.bottom[:0]
	q.bpos = 0
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
			// cursor cannot be repopulated (enqueue admits only
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
		sortEvents(q.bottom)
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
// keep the no-hole invariant: every event admitted by enqueue's
// at >= curStart() check maps to a bucket at or ahead of the cursor.
func (q *eventq) spawn(parent *rung) {
	start := parent.curStart()
	nb := int(parent.cnt[parent.cur]) / bucketTarget
	if nb < minBuckets {
		nb = minBuckets
	} else if nb > maxBuckets {
		nb = maxBuckets
	}
	child := &q.rungs[q.nr]
	q.nr++
	child.reset(start, (parent.width-1)/Time(nb)+1, nb)
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
	r.reset(mn, width, nb)
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
