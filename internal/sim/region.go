package sim

import (
	"time"

	"repro/internal/trace"
)

// A phase of a process is opened once, for the sinks it belongs to, by one
// of three fronts: Region (profile, critical path and span), Span
// (critical path and span) and Phase (profile only). The profile records
// only processes that keep one (KeepProfile). Phases nest: each closes
// before the one it was opened in. A region of ClassMovement or ClassIdle,
// however opened, also adds its length to its process's tally (Tally).

// Phase is a phase of a process's profile alone. Close it with End.
type Phase struct {
	p     *Proc
	name  string
	node  int32 // its call path in p's profile; 0 when p keeps none
	start Time
}

// Phase opens a phase recorded only in p's profile.
func (p *Proc) Phase(name string) Phase {
	return Phase{p: p, name: name, node: p.enter(name), start: p.e.now}
}

// End closes the phase, adding its length to its call path.
func (ph Phase) End() { ph.p.leave(ph.node, ph.name, ph.start) }

// Region is a phase of the critical-path timeline and the span trace, and
// of the profile when opened by Proc.Region. Close it with End.
type Region struct {
	p               *Proc
	component, name string
	class           trace.Class
	node            int32 // as Phase.node
	start           Time
}

// Region opens a phase for every sink: a profile phase named name and a
// critical-path region labeled component/name with class.
func (p *Proc) Region(component, name string, class trace.Class) Region {
	r := p.Span(component, name, class)
	r.node = p.enter(name)
	return r
}

// Span opens a phase that the critical path and the span trace record and
// the profile does not: a detail, or time that needs no call path of its
// own.
func (p *Proc) Span(component, name string, class trace.Class) Region {
	p.CritBegin(component, name, class)
	return Region{p: p, component: component, name: name, class: class, start: p.e.now}
}

// End closes the phase: it emits the span when a recorder is installed,
// then closes the critical-path region, then the profile phase, adds the
// phase's length to p's tally by its class, and returns that length.
func (r Region) End(bytes int64, attr string) time.Duration {
	p := r.p
	d := p.e.now - r.start
	if rec := p.e.rec; rec != nil {
		rec.Emit(trace.Span{Proc: p.name, Component: r.component, Name: r.name,
			Class: r.class, Start: r.start, Dur: d, Bytes: bytes, Attr: attr})
	}
	p.CritEnd()
	p.leave(r.node, r.name, r.start)
	switch r.class {
	case trace.ClassMovement:
		p.slot().movement += d
	case trace.ClassIdle:
		p.slot().idle += d
	}
	return d
}
