// Package caliper provides hierarchical region instrumentation in the
// spirit of LLNL's Caliper: processes annotate Begin/End regions and the
// annotator accumulates an inclusive-time call-path profile. Profiles feed
// the thicket package, which performs the cross-run analysis the paper
// uses to split producer/consumer time into data movement and idle time.
//
// Annotators are clock-agnostic: the simulation passes the process's
// virtual clock, real-time pipelines pass a wall clock.
//
// Instrumentation can always run unconditionally: a nil *Annotator and the
// zero-value Annotator are both inert — Begin/End/Region no-op and Profile
// returns an empty profile — so code paths that sometimes run without
// instrumentation never need nil checks.
package caliper

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Clock yields the current time as elapsed duration since an arbitrary
// per-run origin. A simulated process (*sim.Proc) is a Clock as is; wrap a
// plain function in ClockFunc.
type Clock interface {
	Now() time.Duration
}

// ClockFunc adapts a function to Clock.
type ClockFunc func() time.Duration

// Now calls f.
func (f ClockFunc) Now() time.Duration { return f() }

// Annotator records one process's region activity. The zero value and the
// nil pointer are inert: every method is safe and free on them (Begin, End,
// and Region are no-ops, TotalOf is zero, and Profile returns an empty
// profile), so instrumented code never needs nil checks. Only annotators
// given a clock by New or Reset record anything.
//
// Regions are recorded into one flat call-path table in first-visit order;
// Profile builds the pointer tree from it only when a caller asks.
type Annotator struct {
	proc  string
	clock Clock
	nodes []node          // nodes[0] is the root, named proc
	stack []int32         // open regions, innermost last
	open  []time.Duration // entry times matching stack
}

// node is one call path of an annotator's table. Links index the table;
// since the root is never a child or a sibling, 0 means "none".
type node struct {
	name                string
	parent, child, next int32 // next is the following sibling
	visits              int64
	total               time.Duration
}

// Node is one call-path node of a profile.
type Node struct {
	Name     string        `json:"name"`
	Visits   int64         `json:"visits"`
	Total    time.Duration `json:"total"` // inclusive time
	Children []*Node       `json:"children,omitempty"`
}

// New creates an annotator for the named process using the given clock.
func New(proc string, clock Clock) *Annotator {
	a := &Annotator{}
	a.Reset(proc, clock)
	return a
}

// Reset discards everything recorded and restarts the annotator for the
// named process, reusing its tables, so a warmed annotator records without
// allocating. A nil clock leaves the annotator inert and holding no
// reference to a previous clock.
func (a *Annotator) Reset(proc string, clock Clock) {
	a.proc, a.clock = proc, clock
	a.nodes, a.stack, a.open = a.nodes[:0], a.stack[:0], a.open[:0]
	if clock != nil {
		a.nodes = append(a.nodes, node{name: proc})
	}
}

// Grow returns anns extended to n annotators, for callers that keep one
// annotator per process and reuse them across runs. Entries past the old
// capacity start inert, with tables carved from three arrays shared by the
// whole batch and sized for nodes call paths (the root included) and depth
// nested open regions per annotator; one that outgrows its share grows on
// its own.
func Grow(anns []Annotator, n, nodes, depth int) []Annotator {
	if n <= cap(anns) {
		return anns[:n]
	}
	grown := make([]Annotator, n)
	fresh := grown[copy(grown, anns[:cap(anns)]):]
	nodeArr := make([]node, len(fresh)*nodes)
	stackArr := make([]int32, len(fresh)*depth)
	openArr := make([]time.Duration, len(fresh)*depth)
	for i := range fresh {
		fresh[i].nodes = nodeArr[i*nodes : i*nodes : (i+1)*nodes]
		fresh[i].stack = stackArr[i*depth : i*depth : (i+1)*depth]
		fresh[i].open = openArr[i*depth : i*depth : (i+1)*depth]
	}
	return grown
}

// Begin opens a region. Regions nest: Begin("a"); Begin("b") attributes
// b's time inside a.
func (a *Annotator) Begin(name string) {
	if a == nil || a.clock == nil {
		return // nil or zero-value annotator: inert by contract
	}
	var parent int32
	if len(a.stack) > 0 {
		parent = a.stack[len(a.stack)-1]
	}
	c, last := a.nodes[parent].child, int32(0)
	for c != 0 && a.nodes[c].name != name {
		c, last = a.nodes[c].next, c
	}
	if c == 0 {
		c = int32(len(a.nodes))
		a.nodes = append(a.nodes, node{name: name, parent: parent})
		if last == 0 {
			a.nodes[parent].child = c
		} else {
			a.nodes[last].next = c
		}
	}
	a.nodes[c].visits++
	a.stack = append(a.stack, c)
	a.open = append(a.open, a.clock.Now())
}

// End closes the innermost region, which must be name (mismatches panic:
// they are instrumentation bugs).
func (a *Annotator) End(name string) {
	if a == nil || a.clock == nil {
		return // inert annotators opened no region, so there is none to close
	}
	if len(a.stack) == 0 {
		panic(fmt.Sprintf("caliper: End(%q) with no open region", name))
	}
	top := &a.nodes[a.stack[len(a.stack)-1]]
	if top.name != name {
		panic(fmt.Sprintf("caliper: End(%q) but innermost region is %q", name, top.name))
	}
	top.total += a.clock.Now() - a.open[len(a.open)-1]
	a.stack = a.stack[:len(a.stack)-1]
	a.open = a.open[:len(a.open)-1]
}

// Region opens name and returns a closure that closes it; use with defer.
func (a *Annotator) Region(name string) func() {
	a.Begin(name)
	return func() { a.End(name) }
}

// TotalOf is Profile().TotalOf(name) read straight from the table: the
// inclusive time of the outermost regions named name.
func (a *Annotator) TotalOf(name string) time.Duration {
	if a == nil {
		return 0
	}
	var t time.Duration
nodes:
	for i := range a.nodes {
		if a.nodes[i].name != name {
			continue
		}
		// A node with a same-named ancestor is already inside that
		// ancestor's inclusive total.
		for anc := int32(i); anc != 0; {
			anc = a.nodes[anc].parent
			if a.nodes[anc].name == name {
				continue nodes
			}
		}
		t += a.nodes[i].total
	}
	return t
}

// Profile snapshots the annotator into an immutable profile. Open regions
// are a bug and panic.
func (a *Annotator) Profile() *Profile {
	if a == nil || a.clock == nil {
		return &Profile{Proc: "", Root: &Node{}}
	}
	if len(a.stack) != 0 {
		panic(fmt.Sprintf("caliper: profile with %d open regions (innermost %q)", len(a.stack), a.nodes[a.stack[len(a.stack)-1]].name))
	}
	// Two allocations for the whole tree: the nodes, and one array whose
	// consecutive runs are each node's Children in first-visit order.
	tree := make([]Node, len(a.nodes))
	var kids []*Node
	if len(a.nodes) > 1 {
		kids = make([]*Node, len(a.nodes)-1)
	}
	off := 0
	for i := range a.nodes {
		n := &a.nodes[i]
		tree[i] = Node{Name: n.name, Visits: n.visits, Total: n.total}
		start := off
		for c := n.child; c != 0; c = a.nodes[c].next {
			kids[off] = &tree[c]
			off++
		}
		if off > start {
			tree[i].Children = kids[start:off:off]
		}
	}
	return &Profile{Proc: a.proc, Root: &tree[0]}
}

// Exclusive returns the node's time not attributed to children.
func (n *Node) Exclusive() time.Duration {
	t := n.Total
	for _, c := range n.Children {
		t -= c.Total
	}
	return t
}

// Find returns the first descendant (depth-first) named name, or nil.
func (n *Node) Find(name string) *Node {
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Walk visits n and every descendant with its slash-joined call path.
func (n *Node) Walk(fn func(path string, node *Node)) {
	n.walk("", fn)
}

func (n *Node) walk(prefix string, fn func(string, *Node)) {
	path := prefix + "/" + n.Name
	fn(path, n)
	for _, c := range n.Children {
		c.walk(path, fn)
	}
}

// Profile is a finished per-process call-path profile.
type Profile struct {
	Proc string `json:"proc"`
	Root *Node  `json:"root"`
}

// TotalOf sums inclusive time over the outermost nodes named name: once a
// node matches, its subtree is not searched further. A same-named region
// nested inside a matching one is already included in the ancestor's
// inclusive total, so counting it again would double-bill that time;
// matches on disjoint call paths (different parents) still all contribute.
func (p *Profile) TotalOf(name string) time.Duration {
	return totalOf(p.Root, name)
}

func totalOf(n *Node, name string) time.Duration {
	if n.Name == name {
		return n.Total
	}
	var t time.Duration
	for _, c := range n.Children {
		t += totalOf(c, name)
	}
	return t
}

// WriteJSON serializes the profile.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadJSON deserializes a profile written by WriteJSON.
func ReadJSON(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("caliper: decode profile: %w", err)
	}
	if p.Root == nil {
		return nil, fmt.Errorf("caliper: profile has no root")
	}
	return &p, nil
}

// Render pretty-prints the call tree with inclusive times, largest
// children first (matching how the paper presents Thicket trees).
func (p *Profile) Render(w io.Writer) {
	renderNode(w, p.Root, 0)
}

func renderNode(w io.Writer, n *Node, depth int) {
	fmt.Fprintf(w, "%s%s  total=%v visits=%d\n", strings.Repeat("  ", depth), n.Name, n.Total, n.Visits)
	kids := append([]*Node(nil), n.Children...)
	// Stable sort: children with equal totals keep their call-path
	// (first-visit) order, so renders are deterministic run to run.
	sort.SliceStable(kids, func(i, j int) bool { return kids[i].Total > kids[j].Total })
	for _, c := range kids {
		renderNode(w, c, depth+1)
	}
}
