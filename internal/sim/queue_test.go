package sim

import (
	"container/heap"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestQueueEquivalenceRandom is the queue-equivalence property test: the
// adaptive queue — in heap mode, in forced ladder mode, and crossing the
// migration threshold mid-workload — must pop in exactly the reference
// container/heap's (at, seq) order under randomized push/pop interleavings
// with heavy at collisions. Three workload shapes are driven: "arbitrary"
// pushes times in any order (stronger than the engine needs), "advancing"
// mimics the engine's hold model, where pushes never go behind the last
// popped time, and "same-instant" pushes half its events at the last
// popped time through the engine's routing rule (the lane for the current
// instant, the main queue otherwise), on a queue sized by grow or not, and
// resets once with the lane holding events. Runs in the -race suite (no
// alloc assertions here).
func TestQueueEquivalenceRandom(t *testing.T) {
	modes := []struct {
		name   string
		thresh int
	}{
		{"adaptive", 0},
		{"ladder", 1},
		{"heap", 1 << 30},
		{"migrating", 100},
	}
	shapes := []string{"arbitrary", "advancing", "same-instant", "same-instant-grown"}
	for _, mode := range modes {
		for _, shape := range shapes {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed=%d", mode.name, shape, seed)
				t.Run(name, func(t *testing.T) {
					rng := NewRNG(seed * 0x9e3779b97f4a7c15)
					q := eventq{thresh: mode.thresh}
					sameInstant := strings.HasPrefix(shape, "same-instant")
					if shape == "same-instant-grown" {
						q.grow(64)
					}
					ref := &refHeap{}
					var seq int64
					var now Time
					reset := false
					const ops = 30_000
					for i := 0; i < ops; i++ {
						if sameInstant && !reset && i >= ops/2 && q.lt > q.lh {
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
				})
			}
		}
	}
}

// checkQueueClear fails unless a just-reset queue is empty, in heap mode,
// and holds no event in any slot of any of its arrays.
func checkQueueClear(t *testing.T, q *eventq) {
	t.Helper()
	if q.len() != 0 || q.ladder {
		t.Fatalf("reset queue: len=%d ladder=%v, want empty heap mode", q.len(), q.ladder)
	}
	check := func(name string, a []event) {
		for i, ev := range a[:cap(a)] {
			if ev.at != 0 || ev.seq != 0 || ev.proc != 0 || ev.fn != nil {
				t.Fatalf("%s slot %d still holds an event (at=%v seq=%d)", name, i, ev.at, ev.seq)
			}
		}
	}
	check("heap", q.heap)
	check("buf", q.buf)
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
	q := eventq{thresh: 1} // ladder mode from the first push
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
			q := eventq{thresh: 256}
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
	q := eventq{thresh: 1}
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

// TestQueueResetClearsSlots drains and resets a ladder-mode queue and
// verifies no backing slot still pins a callback — the anti-retention
// invariant TestHeapPopZeroesVacatedSlots checks for heap mode.
func TestQueueResetClearsSlots(t *testing.T) {
	marker := func() {}
	q := eventq{thresh: 1}
	rng := NewRNG(3)
	for i := 0; i < 5000; i++ {
		q.push(event{at: Time(rng.Intn(64)) * time.Millisecond, seq: int64(i), proc: noProc, fn: marker})
	}
	// Consume half (fired events must not be pinned), then reset the rest.
	for i := 0; i < 2500; i++ {
		q.pop()
	}
	q.reset()
	checkQueueClear(t, &q)
}

// TestQueueReuseAfterReset reuses one queue across reset cycles, crossing
// the migration threshold each time, and demands identical pop sequences —
// the invariant pooled engines rely on (Engine.Reset keeps queue arrays).
func TestQueueReuseAfterReset(t *testing.T) {
	var q eventq
	q.thresh = 64
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

// TestEngineTimelineUnchangedByQueueMode runs one interleaved workload on a
// default engine and on an engine whose queues are forced into ladder mode
// from the first event, and requires the traced virtual timelines to match
// exactly: the queue mode must be invisible to the simulation. Many of the
// workload's events are due at the instant they are scheduled — zero
// sleeps, broadcast wakes, zero-delay callbacks — so the same-instant lane
// merges with both modes.
func TestEngineTimelineUnchangedByQueueMode(t *testing.T) {
	workload := func(forceLadder bool) []string {
		e := NewEngine(99)
		if forceLadder {
			e.pq.thresh = 1
		}
		var log []string
		e.SetTracer(func(at Time, proc, msg string) {
			log = append(log, fmt.Sprintf("%v %s %s", at, proc, msg))
		})
		var sig Signal
		for i := 0; i < 50; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for s := 0; s < 40; s++ {
					switch p.Rand().Intn(4) {
					case 0:
						p.Sleep(0)
					case 1:
						if i%5 == 0 {
							sig.Broadcast()
							e.After(0, func() { p.Tracef("callback %d", s) })
						}
						fallthrough
					default:
						p.Sleep(time.Duration(1+p.Rand().Intn(500)) * time.Microsecond)
					}
					p.Tracef("step %d", s)
				}
			})
		}
		for i := 0; i < 10; i++ {
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				for s := 0; s < 20; s++ {
					sig.Wait(p)
					p.Tracef("woken %d", s)
				}
			})
		}
		e.Spawn("ticker", func(p *Proc) {
			for s := 0; s < 400; s++ {
				p.Sleep(50 * time.Microsecond)
				sig.Broadcast()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	base := workload(false)
	ladder := workload(true)
	if len(base) != len(ladder) {
		t.Fatalf("ladder timeline has %d entries, heap timeline %d", len(ladder), len(base))
	}
	for i := range base {
		if base[i] != ladder[i] {
			t.Fatalf("timeline diverges at entry %d:\n  heap:   %s\n  ladder: %s", i, base[i], ladder[i])
		}
	}
}

// FuzzEventQueue is the differential fuzz test of the queue: each input
// byte is one operation — a push a few nanoseconds ahead, routed as the
// engine routes (the lane when due now, the main queue otherwise), a push
// due now, a pop, a grow, or a reset — on a queue whose mode the first byte
// picks (adaptive, ladder, heap, or migrating at 8 pending). Every peek and
// pop must match the container/heap reference, and a reset must leave no
// event in any slot.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte("\x00\x20\x20\xa0\x21\x60\x80\x61\x80"))
	f.Add([]byte("\x01\x20\x20\x20\x20\x02\x03\xa0\xa0\x21\x21\x80\x80\x80\xff\x20\x80"))
	f.Add([]byte("\x03\x01\x02\x03\x04\x05\x06\x07\x08\x09\x20\x20\x20\x20\x80\x20\x80\x80\xe8\x80"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		threshes := [...]int{0, 1, 1 << 30, 8}
		q := eventq{thresh: threshes[ops[0]%4]}
		ref := &refHeap{}
		marker := func() {}
		var seq int64
		var now Time
		for i, b := range ops[1:] {
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
				} else {
					q.reset()
					checkQueueClear(t, &q)
					ref, now = &refHeap{}, 0
				}
			}
			if q.len() != ref.Len() {
				t.Fatalf("op %d: size %d vs reference %d", i, q.len(), ref.Len())
			}
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
