// Package critpath records the causal dependency graph of a workflow run
// and extracts answers from it: the critical path that gated the makespan
// (with per-component/per-class blame totals), per-frame provenance
// lineages (produce → write → commit → fetch → transfer → cache → consume),
// and differential reports that attribute the makespan gap between two
// backends to named graph edges.
//
// The recorder is a thin hook layer threaded through the sim kernel
// (proc spawn/wake/block edges), cluster (transfer/RPC regions), kvs
// (commit→lookup tokens), the backends (write→read tokens, lineage hops),
// and capacity (back-pressure, eviction/spill hops). Every hook is
// nil-guarded at the call site, so a run without a recorder pays one
// pointer compare and zero allocations (TestCritpathZeroAllocs).
//
// Determinism contract: recorder methods are only called from event
// execution, which the kernel serializes on one goroutine. Node identity is
// positional — a segment is (proc, append index), an edge's id is its
// append index, both stamped in execution order, which the (at, seq) event
// tie-break makes identical at any -j. No map is ever iterated to produce
// output.
package critpath

import (
	"time"

	"repro/internal/trace"
)

// Time mirrors sim.Time (virtual nanoseconds) without importing sim —
// sim imports this package, not the other way around.
type Time = time.Duration

// Label identifies a blame bucket: a named region of proc execution.
// Class is the *effective* class — a ClassDetail region nested inside a
// classed region inherits the enclosing class, so per-class totals on the
// critical path reproduce the paper's movement/idle/compute split even
// when blame lands on fine-grained inner labels.
type Label struct {
	Component string
	Name      string
	Class     trace.Class
}

// Kind distinguishes segment flavours on a proc timeline.
type Kind uint8

const (
	// Run is time the proc was executing (including virtual-time sleeps,
	// which model compute, not blocking).
	Run Kind = iota
	// Wait is time the proc was blocked on another proc or resource.
	Wait
)

func (k Kind) String() string {
	if k == Wait {
		return "wait"
	}
	return "run"
}

// Segment is one interval of a proc's timeline. Segments tile each proc's
// lifetime: every instant between spawn and completion is in exactly one
// segment.
type Segment struct {
	Kind  Kind
	Label int32 // index into Graph.Labels, -1 when unlabeled
	Start Time
	End   Time
	Edge  int32 // wait segments: index of the releasing edge, -1 if external
}

// Edge is a causal release: proc From woke proc To at time At. From is -1
// when the wake came from a kernel timer callback rather than a proc (the
// wait was then gated by time, not by another proc's work).
type Edge struct {
	From int32
	To   int32
	At   Time
}

// Dep is a recorded data dependency on a produced token (a frame path):
// the consumer observed at ConsumedAt a value produced at ProducedAt.
// ConsumedAt-ProducedAt is the dependency's slack — how close the
// dependency came to gating the consumer.
type Dep struct {
	Token      string
	Kind       string // "fetch", "consume", ...
	Producer   int32
	Consumer   int32
	ProducedAt Time
	ConsumedAt Time
	Bytes      int64
}

// Hop is one stage of a frame's provenance lineage.
type Hop struct {
	Name  string // "write", "kvs_commit", "sync_wait", "transfer", ...
	Proc  string // acting proc name, "" for proc-less events
	Start Time
	End   Time
	Bytes int64
}

// FrameLineage is the ordered provenance record of one frame: every hop
// the payload took from production to consumption.
type FrameLineage struct {
	Key  string
	Hops []Hop
}

// ProcTimeline is one proc's recorded history.
type ProcTimeline struct {
	Name       string
	Parent     int32 // spawning proc, -1 when spawned from the driver
	Background bool  // excluded as a critical-path root (e.g. noise procs)
	Segments   []Segment
}

// Graph is the finished dependency graph of one run.
type Graph struct {
	Makespan Time
	Labels   []Label
	Procs    []ProcTimeline
	Edges    []Edge
	Deps     []Dep
	Lineages []FrameLineage
	// Unclosed counts the foreground processes that ended with a labeled
	// region still open: a Begin without its End. Background processes
	// (noise winding down mid-region) and aborted ones, which never
	// reach EndProc, are not counted. A successful run should have none;
	// a nonzero count means blame leaked out of its region.
	Unclosed int
}

// Summary bundles the per-run artifacts a Result retains: the extracted
// critical path and the frame lineages (the raw graph is dropped).
type Summary struct {
	Path     *CritPath
	Frames   []FrameLineage
	Unclosed int // Graph.Unclosed of the recorded run
}

type procState struct {
	name       string
	parent     int32
	background bool
	started    bool
	ended      bool
	waiting    bool
	segStart   Time
	pending    int32 // edge awaiting this proc's wait close, -1 none
	stack      []int32
	segs       []Segment
}

type tokenInfo struct {
	proc  int32
	at    Time
	bytes int64
}

// lineRec is a lineage as recorded: its key and its number of hops.
type lineRec struct {
	key  string
	hops int
}

// hopRec is one recorded hop and the index of its lineage.
type hopRec struct {
	line int32
	hop  Hop
}

// Recorder accumulates the dependency graph while a run executes. Methods
// are not safe for concurrent use; the sim kernel's serialized event
// execution is the required synchronization. Hooks must nil-check the
// recorder before calling (the zero-cost-when-off contract lives at the
// call sites, not here).
type Recorder struct {
	labelIdx map[Label]int32
	labels   []Label
	procs    []procState
	edges    []Edge
	deps     []Dep
	tokens   map[string]tokenInfo
	lineIdx  map[string]int32
	// lines holds each lineage's key and hop count, by first appearance,
	// and hops every hop, in recording order, with its lineage's index:
	// Finish lays them out as the Graph's Lineages.
	lines    []lineRec
	hops     []hopRec
	unclosed int // see Graph.Unclosed

	// OnDep, when set, observes every dependency's slack (age of the
	// token at consumption) keyed by dep kind. OnHop observes every
	// lineage hop's duration keyed by hop name. Both let core feed
	// metrics histograms without this package importing metrics.
	OnDep func(kind string, slack Time)
	OnHop func(hop string, d Time)
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		labelIdx: make(map[Label]int32),
		tokens:   make(map[string]tokenInfo),
		lineIdx:  make(map[string]int32),
	}
}

// Reset empties the recorder for its next run, as NewRecorder would
// leave it, but keeps its backing arrays and maps: a reused recorder grows
// only past the largest run it served. A Graph returned by Finish is
// invalid from here on, except its Lineages, which Finish laid out anew.
func (r *Recorder) Reset() {
	clearProcs(r.procs[:cap(r.procs)])
	r.procs = r.procs[:0]
	r.edges = r.edges[:0]
	r.deps = r.deps[:0]
	r.labels = r.labels[:0]
	clear(r.labelIdx)
	clear(r.tokens)
	clear(r.lineIdx)
	r.lines = r.lines[:0]
	r.hops = r.hops[:0]
	r.unclosed = 0
	r.OnDep, r.OnHop = nil, nil
}

// clearProcs puts each slot in the state of a proc not yet seen, keeping
// its segment and stack arrays.
func clearProcs(procs []procState) {
	for i := range procs {
		ps := &procs[i]
		*ps = procState{parent: -1, pending: -1, stack: ps.stack[:0], segs: ps.segs[:0]}
	}
}

// ps returns proc idx's slot, extending procs to it. Every slot between
// len and cap is clear (Reset, and the growth here, see to it), so
// extending within cap reuses a slot's arrays from an earlier run.
func (r *Recorder) ps(idx int32) *procState {
	for int(idx) >= len(r.procs) {
		if n := len(r.procs); n == cap(r.procs) {
			r.procs = append(r.procs, procState{})[:n]
			clearProcs(r.procs[n:cap(r.procs)])
		}
		r.procs = r.procs[:len(r.procs)+1]
	}
	return &r.procs[idx]
}

func (r *Recorder) intern(l Label) int32 {
	if id, ok := r.labelIdx[l]; ok {
		return id
	}
	id := int32(len(r.labels))
	r.labels = append(r.labels, l)
	r.labelIdx[l] = id
	return id
}

func (ps *procState) top() int32 {
	if n := len(ps.stack); n > 0 {
		return ps.stack[n-1]
	}
	return -1
}

// closeRun ends the proc's open run segment at `at`. Zero-length run
// segments are dropped — they carry no blame and no edge.
func (ps *procState) closeRun(at Time) {
	if at > ps.segStart {
		ps.segs = append(ps.segs, Segment{Kind: Run, Label: ps.top(), Start: ps.segStart, End: at, Edge: -1})
	}
	ps.segStart = at
}

// StartProc records a proc's creation. parent is the spawning proc's index
// (-1 when spawned from the driver before Run); the extractor walks
// through spawn edges when a proc's timeline begins mid-path.
func (r *Recorder) StartProc(idx int32, name string, parent int32, at Time) {
	ps := r.ps(idx)
	ps.name = name
	ps.parent = parent
	ps.started = true
	ps.segStart = at
	ps.pending = -1
}

// EndProc records a proc's completion, closing its open run segment. A
// foreground proc that ends inside a region counts toward Graph.Unclosed.
func (r *Recorder) EndProc(idx int32, at Time) {
	ps := r.ps(idx)
	ps.closeRun(at)
	ps.ended = true
	if len(ps.stack) > 0 && !ps.background {
		r.unclosed++
	}
}

// SetBackground excludes the proc from critical-path root selection: the
// run is not "complete" when it finishes (noise procs wind down on their
// own timers after the workflow ends).
func (r *Recorder) SetBackground(idx int32) { r.ps(idx).background = true }

// Begin pushes a labeled region on the proc's stack. ClassDetail regions
// inherit the enclosing region's class (see Label).
func (r *Recorder) Begin(idx int32, component, name string, class trace.Class, at Time) {
	ps := r.ps(idx)
	ps.closeRun(at)
	if class == trace.ClassDetail {
		if top := ps.top(); top >= 0 {
			class = r.labels[top].Class
		}
	}
	ps.stack = append(ps.stack, r.intern(Label{Component: component, Name: name, Class: class}))
}

// End pops the proc's innermost labeled region. Unbalanced Ends are
// ignored (a run that dies mid-region may unwind past its Begins).
func (r *Recorder) End(idx int32, at Time) {
	ps := r.ps(idx)
	ps.closeRun(at)
	if n := len(ps.stack); n > 0 {
		ps.stack = ps.stack[:n-1]
	}
}

// BeginWait marks the proc blocked (sim.Proc.Block). The wait inherits the
// innermost open label.
func (r *Recorder) BeginWait(idx int32, at Time) {
	ps := r.ps(idx)
	ps.closeRun(at)
	ps.waiting = true
}

// EndWait closes the proc's open wait segment, attaching the pending
// release edge if a proc-sourced wake was recorded.
func (r *Recorder) EndWait(idx int32, at Time) {
	ps := r.ps(idx)
	ps.segs = append(ps.segs, Segment{Kind: Wait, Label: ps.top(), Start: ps.segStart, End: at, Edge: ps.pending})
	ps.pending = -1
	ps.waiting = false
	ps.segStart = at
}

// Release records that proc `from` (or a kernel callback, from = -1) woke
// proc `to` at time `at`. The edge is bound to the wait segment `to`
// closes at its next EndWait.
func (r *Recorder) Release(from, to int32, at Time) {
	ps := r.ps(to)
	ps.pending = int32(len(r.edges))
	r.edges = append(r.edges, Edge{From: from, To: to, At: at})
}

// Produce registers a token (a frame path) as available from `at`. Only
// the first registration counts: the token's birth is its first durable
// write; later copies (mirror, cache) are hops, not new births.
func (r *Recorder) Produce(token string, proc int32, at Time, bytes int64) {
	if _, ok := r.tokens[token]; ok {
		return
	}
	r.tokens[token] = tokenInfo{proc: proc, at: at, bytes: bytes}
}

// Depend records that proc consumed the token at `at`. Unknown tokens
// (reads of files the recorder never saw produced) are ignored.
func (r *Recorder) Depend(token, kind string, proc int32, at Time) {
	t, ok := r.tokens[token]
	if !ok {
		return
	}
	r.deps = append(r.deps, Dep{
		Token: token, Kind: kind,
		Producer: t.proc, Consumer: proc,
		ProducedAt: t.at, ConsumedAt: at, Bytes: t.bytes,
	})
	if r.OnDep != nil {
		r.OnDep(kind, at-t.at)
	}
}

// Hop appends one provenance hop to the frame's lineage. Lineages are
// ordered by first appearance; hops within a lineage by recording order.
func (r *Recorder) Hop(key, hop string, proc int32, start, end Time, bytes int64) {
	li, ok := r.lineIdx[key]
	if !ok {
		li = int32(len(r.lines))
		r.lineIdx[key] = li
		r.lines = append(r.lines, lineRec{key: key})
	}
	r.lines[li].hops++
	name := ""
	if proc >= 0 && int(proc) < len(r.procs) {
		name = r.procs[proc].name
	}
	r.hops = append(r.hops, hopRec{line: li, hop: Hop{Name: hop, Proc: name, Start: start, End: end, Bytes: bytes}})
	if r.OnHop != nil {
		r.OnHop(hop, end-start)
	}
}

// Finish closes every open segment at `at` (the engine's final time) and
// returns the completed graph. The graph shares the recorder's arrays: it
// is valid until the recorder's next Reset, and the recorder records
// nothing more until then. Its Lineages are its own, and survive the Reset.
func (r *Recorder) Finish(at Time) *Graph {
	g := &Graph{
		Makespan: at,
		Labels:   r.labels,
		Edges:    r.edges,
		Deps:     r.deps,
		Lineages: r.layoutLineages(),
		Unclosed: r.unclosed,
	}
	g.Procs = make([]ProcTimeline, len(r.procs))
	for i := range r.procs {
		ps := &r.procs[i]
		if ps.started && !ps.ended {
			if ps.waiting {
				// A proc stranded in Block at engine finish (aborted or
				// deadlocked): keep the open wait so its time is visible.
				ps.segs = append(ps.segs, Segment{Kind: Wait, Label: ps.top(), Start: ps.segStart, End: at, Edge: ps.pending})
			} else {
				ps.closeRun(at)
			}
		}
		g.Procs[i] = ProcTimeline{Name: ps.name, Parent: ps.parent, Background: ps.background, Segments: ps.segs}
	}
	return g
}

// layoutLineages lays the recorded lineages out at their final size: one
// array of lineages and one of hops, where each lineage's Hops is its own
// part, in recording order, with its capacity equal to its length. Nil
// when no hop was recorded.
func (r *Recorder) layoutLineages() []FrameLineage {
	if len(r.lines) == 0 {
		return nil
	}
	lines := make([]FrameLineage, len(r.lines))
	hops := make([]Hop, len(r.hops))
	for i, l := range r.lines {
		lines[i] = FrameLineage{Key: l.key, Hops: hops[:0:l.hops]}
		hops = hops[l.hops:]
	}
	for _, h := range r.hops {
		lines[h.line].Hops = append(lines[h.line].Hops, h.hop)
	}
	return lines
}
