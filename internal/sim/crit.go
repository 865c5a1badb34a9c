package sim

import (
	"repro/internal/critpath"
	"repro/internal/trace"
)

// This file is the kernel's side of the critical-path hook layer
// (internal/critpath). The lifecycle edges — spawn, block, wake, finish —
// are recorded inside the kernel itself (proc.go); everything here is the
// convenience surface instrumentation sites call. A phase that also feeds
// the caliper profile or the span trace opens its label through
// Proc.Region (region.go), which calls CritBegin/CritEnd itself; sites
// call CritBegin directly only for labels no other sink records over the
// same extent. Every entry point is a single nil check when no recorder
// is installed, so a run without one pays nothing and allocates nothing
// (TestCritpathZeroAllocs).

// SetCritRecorder installs a critical-path recorder: the kernel records
// spawn/block/wake causality through it and instrumented subsystems add
// labeled regions, data tokens, and provenance hops. A nil recorder (the
// default) disables dependency recording at zero cost.
func (e *Engine) SetCritRecorder(cp *critpath.Recorder) { e.cp = cp }

// CritBegin opens a labeled region on the process's critical-path
// timeline: time the proc spends (running or blocked) until the matching
// CritEnd is blamed to this label when the critical path passes through
// it. Regions nest; ClassDetail regions inherit the enclosing class.
func (p *Proc) CritBegin(component, name string, class trace.Class) {
	if cp := p.e.cp; cp != nil {
		cp.Begin(p.idx, component, name, class, p.e.now)
	}
}

// CritEnd closes the process's innermost critical-path region.
func (p *Proc) CritEnd() {
	if cp := p.e.cp; cp != nil {
		cp.End(p.idx, p.e.now)
	}
}

// CritProduce registers a data token (a frame path) as produced now.
// Only the first registration per token counts (its durable birth).
func (p *Proc) CritProduce(token string) {
	if cp := p.e.cp; cp != nil {
		cp.Produce(token, p.e.now)
	}
}

// CritDepend records that the process consumed a token now; the recorder
// derives the dependency's slack (age at consumption) from its birth.
func (p *Proc) CritDepend(token string) {
	if cp := p.e.cp; cp != nil {
		cp.Depend(token, p.e.now)
	}
}

// CritHop appends one provenance hop [start, now] to the token's lineage.
func (p *Proc) CritHop(key, hop string, start Time, bytes int64) {
	if cp := p.e.cp; cp != nil {
		cp.Hop(key, hop, p.idx, start, p.e.now, bytes)
	}
}

// CritBackground marks the process as background activity: it is never
// chosen as the critical-path root (its completion is not the workflow's).
func (p *Proc) CritBackground() {
	if cp := p.e.cp; cp != nil {
		cp.SetBackground(p.idx)
	}
}
