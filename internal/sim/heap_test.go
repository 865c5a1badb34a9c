package sim

import (
	"container/heap"
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

// TestHeapMatchesContainerHeap drives the inlined 4-ary heap and a
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
		t.Fatalf("drained heap still holds %d events", e.pq.len())
	}
}

// TestHeapPopZeroesVacatedSlots checks the anti-retention invariant: slots
// past the live heap must be zeroed so popped events don't pin closures.
func TestHeapPopZeroesVacatedSlots(t *testing.T) {
	e := NewEngine(0)
	marker := func() {}
	for i := 0; i < 32; i++ {
		e.pq.push(event{at: Time(i), seq: int64(i), proc: noProc, fn: marker})
	}
	for i := 0; i < 32; i++ {
		e.pq.pop()
	}
	for i, ev := range e.pq.heap[:cap(e.pq.heap)] {
		if ev.fn != nil {
			t.Fatalf("vacated slot %d still holds a closure reference", i)
		}
	}
}
