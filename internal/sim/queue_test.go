package sim

import (
	"container/heap"
	"fmt"
	"strings"
	"testing"
	"time"
)

// refHeap is a container/heap reference implementation with the kernel's
// exact ordering contract: ascending (at, seq).
type refHeap []event

func (h refHeap) Len() int      { return len(h) }
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h refHeap) Less(i, j int) bool {
	return h[i].before(&h[j])
}
func (h *refHeap) Push(x any) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// TestQueueEquivalenceRandom is the queue-equivalence property test: the
// queue must pop in exactly the reference container/heap's (at, seq) order
// under randomized push/pop interleavings with heavy at collisions. Three
// workload shapes are driven: "arbitrary" pushes times in any order
// (stronger than the engine needs), "advancing" mimics the engine's hold
// model, where pushes never go behind the last popped time, and
// "same-instant" pushes half its events at the last popped time through
// the engine's routing rule (the lane for the current instant, the ladder
// otherwise), on a queue sized by grow or not, and resets once with the
// lane holding events. "same-instant-fanout" is one long cascade at an
// instant: nearly every push is due now, so the lane holds thousands of
// events while pops drain it from the front, and its array must still
// stay within twice the most events it held at once (laneWatch). Each
// shape runs from four starting states of the queue's arrays, named by
// the first level of the subtest name (see starts). Runs in the -race
// suite (no alloc assertions here).
func TestQueueEquivalenceRandom(t *testing.T) {
	starts := []struct {
		name  string
		setup func(q *eventq)
	}{
		// The zero queue: the lane's array is made on its first push and
		// doubled as it fills, and the top band grows by append.
		{"adaptive", func(q *eventq) {}},
		// A pooled engine's queue: rungs, bottom and top left behind by
		// an earlier workload, then reset.
		{"ladder", func(q *eventq) {
			rng := NewRNG(5)
			for i := 0; i < 5000; i++ {
				q.push(event{at: Time(rng.Intn(1 << 20)), seq: int64(i), proc: noProc})
			}
			for i := 0; i < 2500; i++ {
				q.pop()
			}
			q.reset()
		}},
		// Preallocated past the workload's peak: neither the top band
		// nor the lane leaves its first array (checked after the run).
		{"heap", func(q *eventq) { q.grow(1 << 14) }},
		// 4-event arrays: the top band and the lane move to longer
		// arrays again and again while the workload grows.
		{"migrating", func(q *eventq) { q.grow(4) }},
	}
	shapes := []string{"arbitrary", "advancing", "same-instant", "same-instant-grown", "same-instant-fanout"}
	for _, start := range starts {
		for _, shape := range shapes {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed=%d", start.name, shape, seed)
				t.Run(name, func(t *testing.T) {
					rng := NewRNG(seed * 0x9e3779b97f4a7c15)
					var q eventq
					start.setup(&q)
					startTop, startLane := cap(q.top), len(q.lane)
					sameInstant := strings.HasPrefix(shape, "same-instant")
					if shape == "same-instant-grown" {
						q.grow(64)
					}
					lane := laneWatch{reserved: len(q.lane)}
					ref := &refHeap{}
					var seq int64
					var now Time
					reset := false
					const ops = 30_000
					for i := 0; i < ops; i++ {
						if sameInstant && !reset && i >= ops/2 && q.ln > 0 {
							// A failed run's queue is reset with events
							// left in the lane.
							q.reset()
							checkQueueClear(t, &q)
							ref, now, reset = &refHeap{}, 0, true
						}
						// Push-heavy growth for the first third, drain-heavy
						// afterwards, so the queue crosses its high-water mark
						// and the ladder exercises transfer/spawn/retire.
						pushBias := 4
						if i > ops/3 {
							pushBias = 2
						}
						if rng.Intn(pushBias) != 0 || q.len() == 0 {
							var at Time
							switch shape {
							case "arbitrary":
								// Tie-heavy: 64 distinct times across 30k events.
								at = Time(rng.Intn(64)) * time.Millisecond
							case "advancing":
								at = now + Time(rng.Intn(2000))*time.Microsecond
							case "same-instant-fanout":
								at = now
								if rng.Intn(16) == 0 {
									at += Time(1+rng.Intn(2000)) * time.Microsecond
								}
							default:
								switch rng.Intn(4) {
								case 0, 1:
									at = now
								case 2:
									at = now + Time(rng.Intn(4))*time.Microsecond
								case 3:
									at = now + Time(rng.Intn(2000))*time.Microsecond
								}
							}
							ev := event{at: at, seq: seq, proc: noProc}
							seq++
							if sameInstant && at == now {
								q.pushNow(ev)
							} else {
								q.push(ev)
							}
							heap.Push(ref, ev)
						} else {
							got := q.pop()
							want := heap.Pop(ref).(event)
							if got.at != want.at || got.seq != want.seq {
								t.Fatalf("op %d: pop = (at=%v seq=%d), reference = (at=%v seq=%d)",
									i, got.at, got.seq, want.at, want.seq)
							}
							if shape != "arbitrary" {
								now = got.at
							}
						}
						if q.len() != ref.Len() {
							t.Fatalf("op %d: size %d vs reference %d", i, q.len(), ref.Len())
						}
						lane.check(t, &q)
					}
					if sameInstant && !reset {
						t.Fatal("weak workload: the lane was never non-empty to reset")
					}
					for ref.Len() > 0 {
						got := q.pop()
						want := heap.Pop(ref).(event)
						if got.at != want.at || got.seq != want.seq {
							t.Fatalf("drain: pop = (at=%v seq=%d), reference = (at=%v seq=%d)",
								got.at, got.seq, want.at, want.seq)
						}
					}
					if q.len() != 0 {
						t.Fatalf("drained queue still reports %d events", q.len())
					}
					if start.name == "heap" && (cap(q.top) != startTop || len(q.lane) != startLane) {
						t.Fatalf("weak start: top grew from %d to %d events, lane from %d to %d",
							startTop, cap(q.top), startLane, len(q.lane))
					}
				})
			}
		}
	}
}

// TestHeapMatchesContainerHeap drives an engine's event queue and a
// container/heap reference with the same randomized push/pop interleaving
// and demands identical pop order — including the seq tie-break on
// heavily duplicated timestamps.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := NewRNG(42)
	e := NewEngine(0)
	ref := &refHeap{}
	seq := int64(0)

	const ops = 20_000
	for i := 0; i < ops; i++ {
		if rng.Intn(3) != 0 || e.pq.len() == 0 {
			// Tie-heavy times: only 64 distinct timestamps across 20k
			// events, so ordering is usually decided by seq alone.
			at := Time(rng.Intn(64)) * time.Millisecond
			ev := event{at: at, seq: seq, proc: noProc}
			seq++
			e.pq.push(ev)
			heap.Push(ref, ev)
		} else {
			got := e.pq.pop()
			want := heap.Pop(ref).(event)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("op %d: pop = (at=%v seq=%d), reference = (at=%v seq=%d)",
					i, got.at, got.seq, want.at, want.seq)
			}
		}
		if e.pq.len() != ref.Len() {
			t.Fatalf("op %d: size %d vs reference %d", i, e.pq.len(), ref.Len())
		}
	}
	// Drain: the tail must come out in exactly reference order too.
	for ref.Len() > 0 {
		got := e.pq.pop()
		want := heap.Pop(ref).(event)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("drain: pop = (at=%v seq=%d), reference = (at=%v seq=%d)",
				got.at, got.seq, want.at, want.seq)
		}
	}
	if e.pq.len() != 0 {
		t.Fatalf("drained queue still holds %d events", e.pq.len())
	}
}

// laneWatch tracks the most events a queue's lane has held at once and
// the longest array grow reserved for it. The lane may double its array
// only when every slot holds an event, so the array is never longer than
// twice that peak, minQueue or the reserve.
type laneWatch struct{ peak, reserved int }

// check updates the peak after an operation on q and fails if the lane's
// array is longer than the bound.
func (w *laneWatch) check(t *testing.T, q *eventq) {
	t.Helper()
	w.peak = max(w.peak, int(q.ln))
	if limit := max(minQueue, w.reserved, 2*w.peak); len(q.lane) > limit {
		t.Fatalf("lane array is %d events, past %d: twice its peak of %d events, minQueue or the reserve of %d",
			len(q.lane), limit, w.peak, w.reserved)
	}
}

// checkQueueClear fails unless a reset or drained queue is empty and holds
// no event in any slot of any of its arrays.
func checkQueueClear(t *testing.T, q *eventq) {
	t.Helper()
	if q.len() != 0 {
		t.Fatalf("queue reports %d pending, want empty", q.len())
	}
	check := func(name string, a []event) {
		for i, ev := range a[:cap(a)] {
			if ev.at != 0 || ev.seq != 0 || ev.proc != 0 || ev.fn != nil {
				t.Fatalf("%s slot %d still holds an event (at=%v seq=%d)", name, i, ev.at, ev.seq)
			}
		}
	}
	check("lane", q.lane)
	check("bottom", q.bottom)
	check("top", q.top)
	for ri := range q.rungs {
		check(fmt.Sprintf("rung %d slab", ri), q.rungs[ri].slab)
	}
}

// TestQueueSpawnCoverageHole is the regression test for the spawn sizing
// bug that lost events at fleet scale: a child rung sized to its bucket's
// observed event span (instead of the bucket's full nominal span) leaves a
// coverage hole at the tail of the bucket. A push into the hole after the
// child's cursor reached its end was admitted by the at >= curStart()
// check, clamped into the child's last — already consumed — bucket, and
// silently discarded when the drained rung was retired. The test builds
// that exact shape deterministically: one coarse transfer bucket dense
// enough to spawn (64 events over a 126 ns spread inside a ~62 µs bucket,
// stretched by one far-future event), drains the spawned child completely,
// then pushes into the tail of the parent bucket's span and demands the
// event pop before the far one.
func TestQueueSpawnCoverageHole(t *testing.T) {
	var q eventq
	var seq int64
	push := func(at Time) {
		q.push(event{at: at, seq: seq, proc: noProc})
		seq++
	}
	const close = 64 // > spawnThreshold, in one transfer-rung bucket
	for i := 0; i < close; i++ {
		push(1000 + Time(2*i))
	}
	push(1_000_000) // stretches the transfer span so bucket 0 is coarse
	for i := 0; i < close; i++ {
		got := q.pop()
		if want := 1000 + Time(2*i); got.at != want {
			t.Fatalf("pop %d: at=%d, want %d", i, got.at, want)
		}
	}
	// The spawned child's cursor is now at its end; 2000 is inside the
	// parent bucket's nominal span but past the last close event.
	push(2000)
	if got := q.pop(); got.at != 2000 {
		t.Fatalf("hole event lost: popped at=%d, want 2000", got.at)
	}
	if got := q.pop(); got.at != 1_000_000 {
		t.Fatalf("far event: popped at=%d, want 1000000", got.at)
	}
	if q.len() != 0 {
		t.Fatalf("queue reports %d pending after drain", q.len())
	}
}

// TestQueueFullLaneWraps fills the lane with a run's spawns, then
// interleaves pops with pushes due now, as processes that each loop on
// Sleep(0) do. Each push must take a slot that a pop freed: the lane keeps
// its array and its head advances one slot a pop, wrapping at the end, so
// no event is moved however long the cascade at one instant runs.
func TestQueueFullLaneWraps(t *testing.T) {
	for _, c := range []struct {
		name    string
		reserve int
	}{
		{"adaptive", 0},    // doubled from minQueue to exactly the spawns
		{"prealloc", 1032}, // Prealloc(1024, 1032): 8 slots past the spawns
	} {
		t.Run(c.name, func(t *testing.T) {
			const spawns = 1024
			var q eventq
			q.grow(c.reserve)
			var seq int64
			for ; seq < spawns; seq++ {
				q.pushNow(event{seq: seq, proc: noProc})
			}
			arr, n := &q.lane[0], len(q.lane)
			if n != max(spawns, c.reserve) {
				t.Fatalf("weak setup: the lane's array is %d events, want %d", n, max(spawns, c.reserve))
			}
			for i := 0; i < 4*n; i++ {
				if ev := q.pop(); ev.seq != int64(i) {
					t.Fatalf("pop %d: seq %d", i, ev.seq)
				}
				q.pushNow(event{seq: seq, proc: noProc})
				seq++
				if &q.lane[0] != arr || len(q.lane) != n || int(q.lh) != (i+1)%n {
					t.Fatalf("round %d: lane array %p of %d events, head %d; want %p of %d, head %d",
						i, &q.lane[0], len(q.lane), q.lh, arr, n, (i+1)%n)
				}
			}
		})
	}
}

// TestQueueLaneDefersSpread checks that the holds a run's spawned
// processes push while the lane still holds the other spawns stay in the
// top band, unspread, so that the first transfer sizes rung 0 to all of
// them. Spread at the second pop, rung 0 would fit the first hold alone,
// and every shorter hold after it would be a bottom insert.
func TestQueueLaneDefersSpread(t *testing.T) {
	var q eventq
	rng := NewRNG(1)
	const procs = 1000
	for i := 0; i < procs; i++ {
		q.pushNow(event{seq: int64(i), proc: noProc})
	}
	for i := 0; i < procs; i++ {
		q.pop()
		q.push(event{at: Time(1 + rng.Intn(1_000_000)), seq: int64(procs + i), proc: noProc})
	}
	if q.nr != 0 || len(q.bottom) != 0 || len(q.top) != procs {
		t.Fatalf("after the spawns: %d rungs, %d events in bottom, %d in top; want all %d in top",
			q.nr, len(q.bottom), len(q.top), procs)
	}
}

// TestQueueHoldModelSteadyState drives the fleet-scale engine pattern in
// which the spawn coverage hole was first seen: a large steady population
// of self-rescheduling timers, each pop pushing a successor at
// popped.at + period + jitter, with exact-tie frame boundaries and
// near-immediate successors mixed in. Every pop is checked against the
// reference heap.
func TestQueueHoldModelSteadyState(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := NewRNG(seed * 0x9e3779b97f4a7c15)
			var q eventq
			ref := &refHeap{}
			var seq int64
			push := func(at Time) {
				ev := event{at: at, seq: seq, proc: noProc}
				seq++
				q.push(ev)
				heap.Push(ref, ev)
			}
			const timers = 600
			const period = Time(5 * time.Millisecond)
			for i := 0; i < timers; i++ {
				push(Time(rng.Intn(int(period))))
			}
			for step := 0; step < 120_000; step++ {
				got := q.pop()
				want := heap.Pop(ref).(event)
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("step %d: pop = (at=%v seq=%d), reference = (at=%v seq=%d)",
						step, got.at, got.seq, want.at, want.seq)
				}
				if q.len() != ref.Len() {
					t.Fatalf("step %d: size %d vs reference %d", step, q.len(), ref.Len())
				}
				d := period
				switch rng.Intn(4) {
				case 0:
					d += Time(rng.Intn(3000)) // tight jitter cluster
				case 1:
					d += Time(rng.Intn(300_000)) // loose jitter
				case 2:
					// exact frame tie: a dense single-instant bucket
				case 3:
					d = Time(1 + rng.Intn(100)) // near-immediate successor
				}
				push(got.at + d)
			}
		})
	}
}

// TestQueueWideHorizon spreads events across a huge, sparse time range —
// the regime that stresses rung sizing, bucket clamping, and top-band
// transfers — and checks exact pop order.
func TestQueueWideHorizon(t *testing.T) {
	rng := NewRNG(7)
	var q eventq
	ref := &refHeap{}
	var seq int64
	const n = 20_000
	for i := 0; i < n; i++ {
		// Mix three scales: microseconds, seconds, and hours, plus a dense
		// cluster at one instant (an unspreadable bucket).
		var at Time
		switch rng.Intn(4) {
		case 0:
			at = Time(rng.Intn(1000)) * time.Microsecond
		case 1:
			at = Time(rng.Intn(1000)) * time.Second
		case 2:
			at = Time(rng.Intn(10)) * time.Hour
		case 3:
			at = 42 * time.Second
		}
		ev := event{at: at, seq: seq, proc: noProc}
		seq++
		q.push(ev)
		heap.Push(ref, ev)
	}
	for ref.Len() > 0 {
		got := q.pop()
		want := heap.Pop(ref).(event)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop = (at=%v seq=%d), reference = (at=%v seq=%d)",
				got.at, got.seq, want.at, want.seq)
		}
	}
}

// TestQueueResetClearsSlots checks the anti-retention invariant: once its
// events are gone, no backing slot of a queue still pins a callback —
// neither after a reset with half the events pending nor after a drain
// with no reset, where every popped slot must have been zeroed.
func TestQueueResetClearsSlots(t *testing.T) {
	for _, drain := range []bool{false, true} {
		name := "reset"
		if drain {
			name = "drained"
		}
		t.Run(name, func(t *testing.T) {
			marker := func() {}
			var q eventq
			rng := NewRNG(3)
			for i := 0; i < 5000; i++ {
				q.push(event{at: Time(rng.Intn(64)) * time.Millisecond, seq: int64(i), proc: noProc, fn: marker})
			}
			if drain {
				for q.len() > 0 {
					q.pop()
				}
			} else {
				// Consume half (fired events must not be pinned), then
				// reset the rest.
				for i := 0; i < 2500; i++ {
					q.pop()
				}
				q.reset()
			}
			checkQueueClear(t, &q)
		})
	}
}

// TestQueueReuseAfterReset reuses one queue across reset cycles and
// demands identical pop sequences — the invariant pooled engines rely on
// (Engine.Reset keeps queue arrays).
func TestQueueReuseAfterReset(t *testing.T) {
	var q eventq
	var first []event
	for cycle := 0; cycle < 3; cycle++ {
		rng := NewRNG(11)
		var got []event
		for i := 0; i < 1000; i++ {
			q.push(event{at: Time(rng.Intn(32)) * time.Millisecond, seq: int64(i), proc: noProc})
		}
		for q.len() > 0 {
			got = append(got, q.pop())
		}
		if cycle == 0 {
			first = got
			continue
		}
		if len(got) != len(first) {
			t.Fatalf("cycle %d popped %d events, first cycle %d", cycle, len(got), len(first))
		}
		for i := range got {
			if got[i].at != first[i].at || got[i].seq != first[i].seq {
				t.Fatalf("cycle %d pop %d = (at=%v seq=%d), first cycle = (at=%v seq=%d)",
					cycle, i, got[i].at, got[i].seq, first[i].at, first[i].seq)
			}
		}
		q.reset()
	}
}

// FuzzEventQueue is the differential fuzz test of the queue: each input
// byte is one operation — a push a few nanoseconds ahead, routed as the
// engine routes (the lane when due now, the main queue otherwise), a push
// due now, a pop, a grow, or a reset. Every peek and pop must match the
// container/heap reference, a reset must leave no event in any slot, and
// the lane's array must stay within its bound (laneWatch).
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte("\x20\x20\xa0\x21\x60\x80\x61\x80"))
	f.Add([]byte("\x20\x20\x20\x20\x02\x03\xa0\xa0\x21\x21\x80\x80\x80\xff\x20\x80"))
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x20\x20\x20\x20\x80\x20\x80\x80\xe8\x80"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q eventq
		var lane laneWatch
		ref := &refHeap{}
		marker := func() {}
		var seq int64
		var now Time
		for i, b := range ops {
			arg := Time(b & 0x1f)
			switch b >> 5 {
			case 0, 1, 2: // push arg ns ahead
				ev := event{at: now + arg, seq: seq, proc: noProc, fn: marker}
				seq++
				if ev.at == now {
					q.pushNow(ev)
				} else {
					q.push(ev)
				}
				heap.Push(ref, ev)
			case 3: // push due now
				ev := event{at: now, seq: seq, proc: noProc, fn: marker}
				seq++
				q.pushNow(ev)
				heap.Push(ref, ev)
			case 4, 5, 6: // pop
				if ref.Len() == 0 {
					continue
				}
				if got, want := q.peek(), (*ref)[0]; got.at != want.at || got.seq != want.seq {
					t.Fatalf("op %d: peek = (at=%v seq=%d), reference = (at=%v seq=%d)",
						i, got.at, got.seq, want.at, want.seq)
				}
				got, want := q.pop(), heap.Pop(ref).(event)
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("op %d: pop = (at=%v seq=%d), reference = (at=%v seq=%d)",
						i, got.at, got.seq, want.at, want.seq)
				}
				now = got.at
			case 7:
				if b&1 == 0 {
					q.grow(int(arg) * 4)
					lane.reserved = max(lane.reserved, int(arg)*4)
				} else {
					q.reset()
					checkQueueClear(t, &q)
					ref, now = &refHeap{}, 0
				}
			}
			if q.len() != ref.Len() {
				t.Fatalf("op %d: size %d vs reference %d", i, q.len(), ref.Len())
			}
			lane.check(t, &q)
		}
		for ref.Len() > 0 {
			got, want := q.pop(), heap.Pop(ref).(event)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("drain: pop = (at=%v seq=%d), reference = (at=%v seq=%d)",
					got.at, got.seq, want.at, want.seq)
			}
		}
	})
}
