package sim

// Signal is a reusable broadcast synchronization point. Processes block in
// Wait; Broadcast wakes every current waiter at the current virtual time.
// Waiters that arrive after a Broadcast wait for the next one.
type Signal struct {
	waiters []*Proc
}

// Wait blocks the calling process until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.Block()
}

// Broadcast wakes all processes currently blocked in Wait, in arrival order.
// Wake only schedules delivery — no waiter resumes (or re-Waits) until the
// kernel regains control — so the slice can be cleared and reused in place.
func (s *Signal) Broadcast() {
	for i, w := range s.waiters {
		w.Wake()
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}

// Latch is a one-way gate: once fired, every past and future Wait returns
// immediately. It models "data has been published" conditions such as a
// key appearing in a key-value store.
type Latch struct {
	fired bool
	sig   Signal
}

// Fired reports whether the latch has fired.
func (l *Latch) Fired() bool { return l.fired }

// Wait blocks until the latch fires; it returns immediately if it already has.
func (l *Latch) Wait(p *Proc) {
	if l.fired {
		return
	}
	l.sig.Wait(p)
}

// Fire opens the latch, waking all waiters. Firing twice is a no-op.
func (l *Latch) Fire() {
	if l.fired {
		return
	}
	l.fired = true
	l.sig.Broadcast()
}
