package sim

import "sync/atomic"

// FreeList is a free list of T kept with an engine: chain states
// (package cluster's wires, package lustre's file operations) are taken
// from the engine that runs the chain and go back to it when the chain is
// done. A harness that reuses its engine (core's run pools) reuses them
// too, so a warmed run allocates none, and since only the code an engine
// is running touches its state, no list takes a lock. Make each list
// once, in a package-level variable.
type FreeList[T any] struct{ slot int }

// freeSlots counts the lists made so far: each gets its own slot in
// every engine's freeLists.
var freeSlots atomic.Int32

// freeLists holds an engine's free lists, one slot per FreeList. An
// engine makes its own on first use, and it lives as long as the engine.
type freeLists struct{ slots []any }

// NewFreeList returns a new, empty list kind.
func NewFreeList[T any]() FreeList[T] {
	return FreeList[T]{slot: int(freeSlots.Add(1)) - 1}
}

// freeStack is one engine's list of one kind.
type freeStack[T any] []*T

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
	*s = append(*s, x)
}
