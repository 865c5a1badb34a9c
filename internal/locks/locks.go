// Package locks provides an advisory, flock-style file lock manager. DYAD
// uses shared/exclusive path locks as its cheap synchronization protocol
// once data is known to be available (the "much less costly file lock-based
// synchronization" of the paper's multi-protocol scheme).
package locks

import (
	"time"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// Mode is the lock mode requested.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

// Params is the lock-path cost model.
type Params struct {
	// SyscallLatency is charged per lock/unlock call (a local flock).
	SyscallLatency time.Duration
}

// DefaultParams returns a local-flock cost model.
func DefaultParams() Params {
	return Params{SyscallLatency: 1500 * time.Nanosecond}
}

// Manager grants advisory locks keyed by cleaned path. The table holds
// only paths that are locked or contended: the unlock that leaves a path
// with no holders and no waiters deletes its entry and keeps the struct on
// a free list for the next path, so a run that locks one path per frame
// neither grows the table nor allocates per lock in the steady state.
type Manager struct {
	params Params
	locks  map[string]*pathLock
	// free holds idle entries (no holders, no waiters), each with its
	// queue's backing array, for reuse. An idle entry behaves exactly like
	// a missing one, so recycling changes no grant or wake order.
	free []*pathLock
}

type pathLock struct {
	sharedHolders int
	exclusive     bool
	queue         []waiter // by value; vacated slots are zeroed on grant
}

type waiter struct {
	p    *sim.Proc
	mode Mode
}

// The engines' free lists of managers and of their lock tables.
var (
	managers   = sim.NewFreeList[Manager]()
	lockTables = sim.NewFreeList[map[string]*pathLock]()
)

// NewManager returns an empty lock table for e's current run. e lends the
// manager and its table (sim.FreeList.Lend, sim.LendMap), and a manager
// keeps the idle entries of its earlier runs: the manager is valid until
// e's next Reset.
func NewManager(e *sim.Engine, params Params) *Manager {
	m := managers.Lend(e)
	*m = Manager{params: params, locks: sim.LendMap(lockTables, e), free: m.free}
	return m
}

// lockFor returns the entry for a cleaned path, taking one from the free
// list (or a new one) when the path has none.
func (m *Manager) lockFor(path string) *pathLock {
	l, ok := m.locks[path]
	if !ok {
		if n := len(m.free) - 1; n >= 0 {
			l = m.free[n]
			m.free[n] = nil
			m.free = m.free[:n]
		} else {
			l = &pathLock{}
		}
		m.locks[path] = l
	}
	return l
}

// Lock blocks until the lock on path is granted in the requested mode.
// Grants are FIFO: a shared request queued behind an exclusive one waits.
func (m *Manager) Lock(p *sim.Proc, path string, mode Mode) {
	path = vfs.Clean(path)
	p.Sleep(m.params.SyscallLatency)
	l := m.lockFor(path)
	if l.grantable(mode) && len(l.queue) == 0 {
		l.grant(mode)
		return
	}
	l.queue = append(l.queue, waiter{p: p, mode: mode})
	p.Block()
}

// Unlock releases one holder of the lock on path.
func (m *Manager) Unlock(p *sim.Proc, path string, mode Mode) {
	path = vfs.Clean(path)
	p.Sleep(m.params.SyscallLatency)
	l := m.lockFor(path)
	switch mode {
	case Shared:
		if l.sharedHolders <= 0 {
			panic("locks: shared unlock with no shared holders")
		}
		l.sharedHolders--
	case Exclusive:
		if !l.exclusive {
			panic("locks: exclusive unlock while not exclusively held")
		}
		l.exclusive = false
	}
	// Grant in FIFO order; consecutive shared requests are granted together.
	// Queues here are short (per-path contention only), so granted slots are
	// copied down rather than kept as a dead prefix.
	granted := 0
	for granted < len(l.queue) && l.grantable(l.queue[granted].mode) {
		w := l.queue[granted]
		granted++
		l.grant(w.mode)
		w.p.Wake()
		if w.mode == Exclusive {
			break
		}
	}
	if granted > 0 {
		live := copy(l.queue, l.queue[granted:])
		for i := live; i < len(l.queue); i++ {
			l.queue[i] = waiter{} // release the proc reference
		}
		l.queue = l.queue[:live]
	}
	if l.sharedHolders == 0 && !l.exclusive && len(l.queue) == 0 {
		delete(m.locks, path)
		m.free = append(m.free, l)
	}
}

// WithExclusive runs fn while holding the exclusive lock on path.
func (m *Manager) WithExclusive(p *sim.Proc, path string, fn func()) {
	m.Lock(p, path, Exclusive)
	defer m.Unlock(p, path, Exclusive)
	fn()
}

// WithShared runs fn while holding a shared lock on path.
func (m *Manager) WithShared(p *sim.Proc, path string, fn func()) {
	m.Lock(p, path, Shared)
	defer m.Unlock(p, path, Shared)
	fn()
}

func (l *pathLock) grantable(mode Mode) bool {
	switch mode {
	case Shared:
		return !l.exclusive
	case Exclusive:
		return !l.exclusive && l.sharedHolders == 0
	}
	panic("locks: unknown mode")
}

func (l *pathLock) grant(mode Mode) {
	if mode == Shared {
		l.sharedHolders++
	} else {
		l.exclusive = true
	}
}
