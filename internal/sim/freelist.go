package sim

import "sync/atomic"

// FreeList is a free list of T kept with an engine. Its values come back
// to it one of two ways:
//
//   - Chain states (package cluster's wires, package lustre's file
//     operations) are taken with Get by the chain that needs one and Put
//     back when the chain is done.
//   - Per-run values (processes, file tables, layouts, key-value and
//     lock maps, the backends' clients and servers) are lent with Lend,
//     or LendMap for a map, and come back by themselves: the engine's
//     next Reset returns every value it lent.
//
// A harness that reuses its engine (core's run pools) reuses both, so a
// warmed run allocates no chain state and grows no table it grew before,
// and since only the code an engine is running touches its state, no
// list takes a lock. A lent value is valid until its engine's next Reset:
// keep nothing past it. An engine that is never reset, or is dropped,
// takes its lists to the garbage collector with it. Make each list once,
// in a package-level variable.
type FreeList[T any] struct{ slot int }

// freeSlots counts the lists made so far: each gets its own slot in
// every engine's freeLists.
var freeSlots atomic.Int32

// freeLists holds an engine's free lists, one slot per FreeList, and the
// values lent since its last Reset. An engine makes its own on first use,
// and it lives as long as the engine.
type freeLists struct {
	slots []any
	lent  []loan
}

// loan is one lent value and the list it goes back to.
type loan struct {
	to giver
	x  any
}

// giver is a freeStack of any kind, which takes back a value it lent.
type giver interface{ give(x any) }

// NewFreeList returns a new, empty list kind.
func NewFreeList[T any]() FreeList[T] {
	return FreeList[T]{slot: int(freeSlots.Add(1)) - 1}
}

// freeStack is one engine's list of one kind.
type freeStack[T any] []*T

func (s *freeStack[T]) give(x any) { *s = append(*s, x.(*T)) }

// Get takes a T from e's list, or returns nil when it is empty.
func (l FreeList[T]) Get(e *Engine) *T {
	if e.free == nil || l.slot >= len(e.free.slots) {
		return nil
	}
	s, _ := e.free.slots[l.slot].(*freeStack[T])
	if s == nil || len(*s) == 0 {
		return nil
	}
	last := len(*s) - 1
	x := (*s)[last]
	(*s)[last] = nil
	*s = (*s)[:last]
	return x
}

// Put gives x to e's list.
func (l FreeList[T]) Put(e *Engine, x *T) {
	s := l.stack(e)
	*s = append(*s, x)
}

// Lend takes a T from e's list, or a new zero one, for e's current run:
// e's next Reset gives it back. The T is as its last borrower left it;
// the taker empties what it reuses (LendMap clears a map, keeping its
// storage). Values lent in a run come back in reverse order, so a run of
// the same shape gets each one in the role it had before.
func (l FreeList[T]) Lend(e *Engine) *T {
	x := l.Get(e)
	if x == nil {
		x = new(T)
	}
	s := l.stack(e) // makes e.free on an engine's first lend
	e.free.lent = append(e.free.lent, loan{to: s, x: x})
	return x
}

// LendMap lends an empty map of l's kind for e's current run (Lend): a
// map an earlier run grew is cleared, and keeps the storage it grew.
func LendMap[K comparable, V any](l FreeList[map[K]V], e *Engine) map[K]V {
	m := l.Lend(e)
	if *m == nil {
		*m = make(map[K]V)
	} else {
		clear(*m)
	}
	return *m
}

// stack returns e's list of l's kind, making it on first use.
func (l FreeList[T]) stack(e *Engine) *freeStack[T] {
	if e.free == nil {
		e.free = new(freeLists)
	}
	f := e.free
	for len(f.slots) <= l.slot {
		f.slots = append(f.slots, nil)
	}
	s, _ := f.slots[l.slot].(*freeStack[T])
	if s == nil {
		s = new(freeStack[T])
		f.slots[l.slot] = s
	}
	return s
}

// reclaim gives every lent value back to its list, the last lent first.
func (f *freeLists) reclaim() {
	for i := len(f.lent) - 1; i >= 0; i-- {
		f.lent[i].to.give(f.lent[i].x)
		f.lent[i] = loan{}
	}
	f.lent = f.lent[:0]
}
