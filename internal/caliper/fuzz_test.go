package caliper_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/caliper"
	"repro/internal/sim"
)

// refAnnotator is the pointer-tree annotator the flat profile table
// replaced, kept as the reference it must match: each node owns a
// Children slice, Begin finds or appends the child, and Profile
// deep-clones the tree. End takes the node Begin returned and the time it
// was opened, as a phase holds both, and must close the innermost opening
// of that node: a start other than that opening's is a phase ended again
// after its call path was reopened.
type refAnnotator struct {
	proc   string
	clock  interface{ Now() time.Duration }
	root   *caliper.Node
	stack  []*caliper.Node
	starts []time.Duration // when each stack entry was opened
}

func newRef(proc string, clock interface{ Now() time.Duration }) *refAnnotator {
	return &refAnnotator{proc: proc, clock: clock, root: &caliper.Node{Name: proc}}
}

func (a *refAnnotator) Begin(name string) *caliper.Node {
	parent := a.root
	if len(a.stack) > 0 {
		parent = a.stack[len(a.stack)-1]
	}
	node := refChild(parent, name)
	node.Visits++
	a.stack = append(a.stack, node)
	a.starts = append(a.starts, a.clock.Now())
	return node
}

func (a *refAnnotator) End(n *caliper.Node, start time.Duration) {
	if len(a.stack) == 0 {
		panic(fmt.Sprintf("sim: process %q ends phase %q with no open phase", a.proc, n.Name))
	}
	top := a.stack[len(a.stack)-1]
	if top != n {
		panic(fmt.Sprintf("sim: process %q ends phase %q but its innermost phase is %q", a.proc, n.Name, top.Name))
	}
	if opened := a.starts[len(a.starts)-1]; opened != start {
		panic(fmt.Sprintf("sim: process %q ends phase %q opened at %v, but it was opened again at %v", a.proc, n.Name, start, opened))
	}
	top.Total += a.clock.Now() - start
	a.stack = a.stack[:len(a.stack)-1]
	a.starts = a.starts[:len(a.starts)-1]
}

func (a *refAnnotator) Profile() *caliper.Profile {
	if len(a.stack) != 0 {
		panic(fmt.Sprintf("sim: profile of process %q with phase %q open", a.proc, a.stack[len(a.stack)-1].Name))
	}
	return &caliper.Profile{Proc: a.proc, Root: refClone(a.root)}
}

func refChild(n *caliper.Node, name string) *caliper.Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	c := &caliper.Node{Name: name}
	n.Children = append(n.Children, c)
	return c
}

func refClone(n *caliper.Node) *caliper.Node {
	c := &caliper.Node{Name: n.Name, Visits: n.Visits, Total: n.Total}
	for _, ch := range n.Children {
		c.Children = append(c.Children, refClone(ch))
	}
	return c
}

// panicOf runs fn and returns its panic message, or "" if it returned.
func panicOf(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// fuzzNames are few on purpose, so one name recurs at several depths and
// nests inside itself. "p0" is also the process (root) name.
var fuzzNames = []string{"io", "fetch", "wait", "p0"}

// openPhase is a phase the fuzzed process opened, with its reference node
// and the time it was opened.
type openPhase struct {
	ph    sim.Phase
	ref   *caliper.Node
	start time.Duration
}

// FuzzAnnotator drives a process's profile and the tree reference through
// the same open/close/Profile/KeepProfile sequence and requires the same
// panics and byte-identical profile JSON and renders. Most inputs grow the
// process's table past the share it was carved with; its slab neighbour, a
// second process that keeps a profile too, must come through untouched.
func FuzzAnnotator(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		e := sim.NewEngine(1)
		var failure string
		e.Spawn("p0", func(p *sim.Proc) { failure = fuzzOps(p, ops) })
		neighbour := e.Spawn("p1", func(p *sim.Proc) {
			p.KeepProfile()
			x := p.Phase("x")
			p.Sleep(time.Millisecond)
			x.End()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if failure != "" {
			t.Fatal(failure)
		}
		if got := neighbour.Profile().TotalOf("x"); got != time.Millisecond {
			t.Fatalf("slab neighbour's region now totals %v, want 1ms", got)
		}
	})
}

// fuzzOps runs ops on p and its reference and returns the first
// divergence, or "" if there is none.
func fuzzOps(p *sim.Proc, ops []byte) string {
	p.KeepProfile()
	ref := newRef("p0", p)
	var open []openPhase
	var closed *openPhase // the last phase closed, for closing it again
	// end closes ph in both and, when both accept, pops the innermost
	// open phase: an accepted close is always of the innermost node.
	end := func(ph openPhase) (got, want string) {
		got, want = panicOf(ph.ph.End), panicOf(func() { ref.End(ph.ref, ph.start) })
		if got == "" && want == "" {
			open = open[:len(open)-1]
			closed = &ph
		}
		return got, want
	}
	for i, op := range ops {
		name := fuzzNames[int(op>>3)%len(fuzzNames)]
		var got, want string
		switch op & 7 {
		case 0, 1: // open a region
			p.Sleep(time.Duration(op>>5) * time.Microsecond)
			open = append(open, openPhase{p.Phase(name), ref.Begin(name), p.Now()})
		case 2: // close a region, often not the innermost one
			ph := closed
			for j := len(open) - 1; j >= 0; j-- {
				if open[j].ref.Name == name {
					ph = &open[j]
					break
				}
			}
			if ph != nil {
				got, want = end(*ph)
			}
		case 3: // close the innermost region, or the last one closed again
			p.Sleep(time.Duration(op>>3) * time.Millisecond)
			ph := closed
			if n := len(open); n > 0 {
				ph = &open[n-1]
			}
			if ph != nil {
				got, want = end(*ph)
			}
		case 4, 5: // snapshot and compare
			var gotP, wantP *caliper.Profile
			got, want = panicOf(func() { gotP = p.Profile() }), panicOf(func() { wantP = ref.Profile() })
			if gotP != nil && wantP != nil {
				if diff := compareProfiles(gotP, wantP); diff != "" {
					return fmt.Sprintf("op %d: %s", i, diff)
				}
			}
		case 6: // restart the profile; phases still open are abandoned
			p.KeepProfile()
			ref = newRef("p0", p)
			open, closed = nil, nil
		case 7:
			p.Sleep(time.Duration(op>>3) * time.Microsecond)
		}
		if got != want {
			return fmt.Sprintf("op %d (%#x): panic %q, reference %q", i, op, got, want)
		}
	}
	return ""
}

// compareProfiles returns how two profiles' JSON or renders differ, or "".
func compareProfiles(got, want *caliper.Profile) string {
	var g, w bytes.Buffer
	if err := got.WriteJSON(&g); err != nil {
		return err.Error()
	}
	if err := want.WriteJSON(&w); err != nil {
		return err.Error()
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		return fmt.Sprintf("profile JSON\n%s\nreference\n%s", g.Bytes(), w.Bytes())
	}
	g.Reset()
	w.Reset()
	got.Render(&g)
	want.Render(&w)
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		return fmt.Sprintf("render\n%s\nreference\n%s", g.Bytes(), w.Bytes())
	}
	return ""
}
