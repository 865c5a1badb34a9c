package sim

import (
	"fmt"
	"time"

	"repro/internal/caliper"
)

// profNode is one call path of a profile table. Links index the table;
// since the root is never a child or a sibling, 0 means "none".
type profNode struct {
	name                string
	parent, child, next int32 // next is the following sibling
	visits              int64
	total               time.Duration
	opened              Time // start of the path's latest opening
}

// profTable is one process's record, in the engine's slab by spawn slot:
// its profile's call paths in first-visit order, nodes[0] the root named
// after the process (none when it keeps no profile), cur the innermost
// open phase (0 when none), and its region tallies (Tally). A phase holds
// its node and start time, so the table needs no stack of open phases.
type profTable struct {
	nodes          []profNode
	cur            int32
	movement, idle time.Duration
}

// profShare is the call paths each table is carved with: the most any
// process of the experiment sweeps was measured to use (a coarse-synced
// DYAD consumer reading across nodes visits 10, the root included).
const profShare = 10

// KeepProfile starts p's call-path profile, discarding any profile p
// kept before: from now on the phases p opens through Region and
// Phase are recorded in it. A warmed engine records without allocating.
//
// It stays out of line: inlined under its callers' branch, it widens the
// frames that parked coroutines keep (DESIGN.md §3c).
//
//go:noinline
func (p *Proc) KeepProfile() {
	t := p.slot()
	if cap(t.nodes) == 0 {
		p.e.carveProfs()
	}
	t.nodes = append(t.nodes[:0], profNode{name: p.name})
	t.cur = 0
}

// slot returns p's table in the slab, growing the slab to every process
// spawned so far when p's slot is past it.
func (p *Proc) slot() *profTable {
	e := p.e
	if int(p.idx) >= len(e.profs) {
		e.growProfs(len(e.procs))
	}
	return &e.profs[p.idx]
}

// Tally returns the total length of p's closed regions of ClassMovement
// and of ClassIdle, however they were opened (Region or Span) and whether
// or not p keeps a profile: the paper's movement/idle split of p's time.
func (p *Proc) Tally() (movement, idle time.Duration) {
	t := p.slot()
	return t.movement, t.idle
}

// growProfs extends the slab to n processes, none keeping a profile or
// tallying yet. Prealloc makes the tables before a run, or else the first
// slot lookup past them; Reset keeps them, emptied and their tallies
// zeroed, for the next run. Their call paths are carved only once a
// process keeps a profile (carveProfs), so runs that keep none never pay
// for them.
func (e *Engine) growProfs(n int) {
	if n > cap(e.profs) {
		grown := make([]profTable, n)
		copy(grown, e.profs[:cap(e.profs)])
		e.profs = grown
	}
	if n > len(e.profs) {
		e.profs = e.profs[:n]
	}
}

// carveProfs gives every table of the slab that has no call paths yet
// its profShare of them, carved from one shared array; a table that
// outgrows its share grows on its own.
func (e *Engine) carveProfs() {
	all := e.profs[:cap(e.profs)]
	bare := 0
	for i := range all {
		if cap(all[i].nodes) == 0 {
			bare++
		}
	}
	arr := make([]profNode, bare*profShare)
	for i := range all {
		if cap(all[i].nodes) == 0 {
			all[i].nodes, arr = arr[:0:profShare], arr[profShare:]
		}
	}
}

// profile returns p's profile table, or nil when p keeps none.
func (p *Proc) profile() *profTable {
	if e := p.e; int(p.idx) < len(e.profs) {
		if t := &e.profs[p.idx]; len(t.nodes) > 0 {
			return t
		}
	}
	return nil
}

// enter opens call path name under p's innermost open phase and counts
// the visit. It returns the path's node, or 0 when p keeps no profile.
func (p *Proc) enter(name string) int32 {
	t := p.profile()
	if t == nil {
		return 0
	}
	parent := t.cur
	c, last := t.nodes[parent].child, int32(0)
	for c != 0 && t.nodes[c].name != name {
		c, last = t.nodes[c].next, c
	}
	if c == 0 {
		c = int32(len(t.nodes))
		t.nodes = append(t.nodes, profNode{name: name, parent: parent})
		if last == 0 {
			t.nodes[parent].child = c
		} else {
			t.nodes[last].next = c
		}
	}
	t.nodes[c].visits++
	t.nodes[c].opened = p.e.now
	t.cur = c
	return c
}

// leave closes the phase named name at node, opened at start, which must
// be p's innermost open phase: anything else is an instrumentation bug
// and panics. So is a second End of a phase whose call path was entered
// again since, which the opening's start tells apart. Node 0 (a phase of
// no profile) is a no-op.
func (p *Proc) leave(node int32, name string, start Time) {
	if node == 0 {
		return
	}
	t := &p.e.profs[p.idx]
	if t.cur != node || t.nodes[node].opened != start {
		p.badLeave(t, node, name, start)
	}
	t.nodes[node].total += p.e.now - start
	t.cur = t.nodes[node].parent
}

//go:noinline
func (p *Proc) badLeave(t *profTable, node int32, name string, start Time) {
	if t.cur == 0 {
		panic(fmt.Sprintf("sim: process %q ends phase %q with no open phase", p.name, name))
	}
	if t.cur == node {
		panic(fmt.Sprintf("sim: process %q ends phase %q opened at %v, but it was opened again at %v", p.name, name, start, t.nodes[node].opened))
	}
	panic(fmt.Sprintf("sim: process %q ends phase %q but its innermost phase is %q", p.name, name, t.nodes[t.cur].name))
}

// Profile snapshots p's profile into a caliper tree, empty when p keeps
// none. An open phase is a bug and panics.
func (p *Proc) Profile() *caliper.Profile {
	t := p.profile()
	if t == nil {
		return &caliper.Profile{Proc: "", Root: &caliper.Node{}}
	}
	if t.cur != 0 {
		panic(fmt.Sprintf("sim: profile of process %q with phase %q open", p.name, t.nodes[t.cur].name))
	}
	// Two allocations for the whole tree: the nodes, and one array whose
	// consecutive runs are each node's Children in first-visit order.
	tree := make([]caliper.Node, len(t.nodes))
	var kids []*caliper.Node
	if len(t.nodes) > 1 {
		kids = make([]*caliper.Node, len(t.nodes)-1)
	}
	off := 0
	for i := range t.nodes {
		n := &t.nodes[i]
		tree[i] = caliper.Node{Name: n.name, Visits: n.visits, Total: n.total}
		start := off
		for c := n.child; c != 0; c = t.nodes[c].next {
			kids[off] = &tree[c]
			off++
		}
		if off > start {
			tree[i].Children = kids[start:off:off]
		}
	}
	return &caliper.Profile{Proc: p.name, Root: &tree[0]}
}
