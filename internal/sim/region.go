package sim

import (
	"time"

	"repro/internal/caliper"
	"repro/internal/trace"
)

// Region is one phase of a process, recorded once for every installed
// sink: the caliper profile, the critical-path timeline and the span
// trace. Open it with Proc.Region and close it with End.
type Region struct {
	p               *Proc
	ann             *caliper.Annotator
	component, name string
	class           trace.Class
	start           Time
}

// Region opens a phase: a caliper region named name on ann (a nil ann
// keeps the phase out of the profile) and a critical-path region
// labeled component/name with class. Regions nest like both of those.
func (p *Proc) Region(ann *caliper.Annotator, component, name string, class trace.Class) Region {
	ann.Begin(name)
	p.CritBegin(component, name, class)
	return Region{p: p, ann: ann, component: component, name: name, class: class, start: p.e.now}
}

// End closes the phase: it emits the span when a recorder is installed,
// then closes the critical-path region, then the caliper region, and
// returns the phase's length.
func (r Region) End(bytes int64, attr string) time.Duration {
	p := r.p
	d := p.e.now - r.start
	if rec := p.e.rec; rec != nil {
		rec.Emit(trace.Span{Proc: p.name, Component: r.component, Name: r.name,
			Class: r.class, Start: r.start, Dur: d, Bytes: bytes, Attr: attr})
	}
	p.CritEnd()
	r.ann.End(r.name)
	return d
}
