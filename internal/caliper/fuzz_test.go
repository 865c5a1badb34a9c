package caliper

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// refAnnotator is the pointer-tree annotator the flat table replaced, kept
// as the reference it must match: each node owns a Children slice, Begin
// finds or appends the child, and Profile deep-clones the tree.
type refAnnotator struct {
	proc  string
	clock Clock
	root  *Node
	stack []*Node
	open  []time.Duration
}

func newRef(proc string, clock Clock) *refAnnotator {
	return &refAnnotator{proc: proc, clock: clock, root: &Node{Name: proc}}
}

func (a *refAnnotator) Begin(name string) {
	parent := a.root
	if len(a.stack) > 0 {
		parent = a.stack[len(a.stack)-1]
	}
	node := refChild(parent, name)
	node.Visits++
	a.stack = append(a.stack, node)
	a.open = append(a.open, a.clock.Now())
}

func (a *refAnnotator) End(name string) {
	if len(a.stack) == 0 {
		panic(fmt.Sprintf("caliper: End(%q) with no open region", name))
	}
	top := a.stack[len(a.stack)-1]
	if top.Name != name {
		panic(fmt.Sprintf("caliper: End(%q) but innermost region is %q", name, top.Name))
	}
	top.Total += a.clock.Now() - a.open[len(a.open)-1]
	a.stack = a.stack[:len(a.stack)-1]
	a.open = a.open[:len(a.open)-1]
}

func (a *refAnnotator) Profile() *Profile {
	if len(a.stack) != 0 {
		panic(fmt.Sprintf("caliper: profile with %d open regions (innermost %q)", len(a.stack), a.stack[len(a.stack)-1].Name))
	}
	return &Profile{Proc: a.proc, Root: refClone(a.root)}
}

func refChild(n *Node, name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	c := &Node{Name: name}
	n.Children = append(n.Children, c)
	return c
}

func refClone(n *Node) *Node {
	c := &Node{Name: n.Name, Visits: n.Visits, Total: n.Total}
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

// FuzzAnnotator drives the flat annotator and the tree reference through
// the same Begin/End/Profile/TotalOf/Reset sequence and requires the same
// panics, the same TotalOf for every name, and byte-identical profile JSON
// and renders. The annotator under test is carved by Grow with room for two
// nodes and one open region, so most inputs also grow it past its share;
// its slab neighbour must come through untouched.
func FuzzAnnotator(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		fc := &fakeClock{}
		anns := Grow(nil, 2, 2, 1)
		neighbour := &anns[1]
		neighbour.Reset("p1", fc)
		neighbour.Begin("x")
		fc.tick(time.Millisecond)
		neighbour.End("x")

		a := &anns[0]
		a.Reset("p0", fc)
		ref := newRef("p0", fc)
		for i, op := range ops {
			name := fuzzNames[int(op>>3)%len(fuzzNames)]
			var got, want string
			switch op & 7 {
			case 0, 1: // open a region
				fc.tick(time.Duration(op>>5) * time.Microsecond)
				a.Begin(name)
				ref.Begin(name)
			case 2: // close a region, often not the innermost one
				got, want = panicOf(func() { a.End(name) }), panicOf(func() { ref.End(name) })
			case 3: // close the innermost region
				fc.tick(time.Duration(op>>3) * time.Millisecond)
				if n := len(ref.stack); n > 0 {
					name = ref.stack[n-1].Name
				}
				got, want = panicOf(func() { a.End(name) }), panicOf(func() { ref.End(name) })
			case 4, 5: // snapshot and compare
				var gotP, wantP *Profile
				got, want = panicOf(func() { gotP = a.Profile() }), panicOf(func() { wantP = ref.Profile() })
				if gotP != nil && wantP != nil {
					compareProfiles(t, i, gotP, wantP)
				}
			case 6: // restart the same annotator
				a.Reset("p0", fc)
				ref = newRef("p0", fc)
			case 7:
				fc.tick(time.Duration(op>>3) * time.Microsecond)
			}
			if got != want {
				t.Fatalf("op %d (%#x): panic %q, reference %q", i, op, got, want)
			}
			for _, n := range fuzzNames {
				if got, want := a.TotalOf(n), totalOf(ref.root, n); got != want {
					t.Fatalf("op %d (%#x): TotalOf(%q) = %v, reference %v", i, op, n, got, want)
				}
			}
		}
		if got := neighbour.TotalOf("x"); got != time.Millisecond {
			t.Fatalf("slab neighbour's region now totals %v, want 1ms", got)
		}
	})
}

func compareProfiles(t *testing.T, op int, got, want *Profile) {
	t.Helper()
	var g, w bytes.Buffer
	if err := got.WriteJSON(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("op %d: profile JSON\n%s\nreference\n%s", op, g.Bytes(), w.Bytes())
	}
	g.Reset()
	w.Reset()
	got.Render(&g)
	want.Render(&w)
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("op %d: render\n%s\nreference\n%s", op, g.Bytes(), w.Bytes())
	}
}

// A warmed annotator restarts and records a region cycle without
// allocating.
func TestAnnotatorZeroAllocs(t *testing.T) {
	fc := &fakeClock{}
	a := New("p0", fc)
	cycle := func() {
		a.Reset("p0", fc)
		a.Begin("dyad_consume")
		a.Begin("dyad_fetch")
		fc.tick(time.Millisecond)
		a.End("dyad_fetch")
		a.End("dyad_consume")
		a.Begin("analytics")
		a.End("analytics")
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("warmed Reset and region cycle allocate %.0f objects, want 0", got)
	}
	if got := a.TotalOf("dyad_fetch"); got != time.Millisecond {
		t.Errorf("TotalOf(dyad_fetch) = %v after a cycle, want 1ms", got)
	}
}
