package caliper

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic tests.
type fakeClock struct{ now time.Duration }

func (f *fakeClock) tick(d time.Duration) { f.now += d }
func (f *fakeClock) Now() time.Duration   { return f.now }

func TestNestedRegionsAccumulate(t *testing.T) {
	fc := &fakeClock{}
	a := New("p0", fc)
	a.Begin("outer")
	fc.tick(10 * time.Millisecond)
	a.Begin("inner")
	fc.tick(5 * time.Millisecond)
	a.End("inner")
	fc.tick(1 * time.Millisecond)
	a.End("outer")

	p := a.Profile()
	outer := p.Root.Find("outer")
	inner := p.Root.Find("inner")
	if outer == nil || inner == nil {
		t.Fatal("regions missing from profile")
	}
	if outer.Total != 16*time.Millisecond {
		t.Fatalf("outer total %v, want 16ms", outer.Total)
	}
	if inner.Total != 5*time.Millisecond {
		t.Fatalf("inner total %v, want 5ms", inner.Total)
	}
	if outer.Exclusive() != 11*time.Millisecond {
		t.Fatalf("outer exclusive %v, want 11ms", outer.Exclusive())
	}
}

func TestRepeatVisitsMerge(t *testing.T) {
	fc := &fakeClock{}
	a := New("p0", fc)
	for i := 0; i < 3; i++ {
		a.Begin("r")
		fc.tick(2 * time.Millisecond)
		a.End("r")
	}
	p := a.Profile()
	r := p.Root.Find("r")
	if r.Visits != 3 {
		t.Fatalf("visits %d, want 3", r.Visits)
	}
	if r.Total != 6*time.Millisecond {
		t.Fatalf("total %v, want 6ms", r.Total)
	}
}

func TestSiblingsKeptSeparate(t *testing.T) {
	fc := &fakeClock{}
	a := New("p0", fc)
	a.Begin("parent")
	a.Begin("x")
	fc.tick(time.Millisecond)
	a.End("x")
	a.Begin("y")
	fc.tick(2 * time.Millisecond)
	a.End("y")
	a.End("parent")
	p := a.Profile()
	parent := p.Root.Find("parent")
	if len(parent.Children) != 2 {
		t.Fatalf("children %d, want 2", len(parent.Children))
	}
	if p.Root.Find("x").Total != time.Millisecond || p.Root.Find("y").Total != 2*time.Millisecond {
		t.Fatal("sibling totals wrong")
	}
}

func TestMismatchedEndPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched End did not panic")
		}
	}()
	fc := &fakeClock{}
	a := New("p0", fc)
	a.Begin("a")
	a.End("b")
}

func TestProfileWithOpenRegionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Profile with open region did not panic")
		}
	}()
	fc := &fakeClock{}
	a := New("p0", fc)
	a.Begin("a")
	a.Profile()
}

func TestNilAnnotatorIsInert(t *testing.T) {
	var a *Annotator
	a.Begin("x")
	a.End("x")
	done := a.Region("y")
	done()
	p := a.Profile()
	if p == nil || p.Root == nil {
		t.Fatal("nil annotator must still produce an empty profile")
	}
}

func TestTotalOfSumsAcrossPaths(t *testing.T) {
	fc := &fakeClock{}
	a := New("p0", fc)
	a.Begin("a")
	a.Begin("io")
	fc.tick(time.Millisecond)
	a.End("io")
	a.End("a")
	a.Begin("b")
	a.Begin("io")
	fc.tick(3 * time.Millisecond)
	a.End("io")
	a.End("b")
	p := a.Profile()
	if got := p.TotalOf("io"); got != 4*time.Millisecond {
		t.Fatalf("TotalOf(io) = %v, want 4ms", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	fc := &fakeClock{}
	a := New("p0", fc)
	done := a.Region("r")
	fc.tick(7 * time.Millisecond)
	done()
	p := a.Profile()

	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Proc != "p0" || got.Root.Find("r").Total != 7*time.Millisecond {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestRenderShowsTree(t *testing.T) {
	fc := &fakeClock{}
	a := New("p0", fc)
	a.Begin("dyad_consume")
	a.Begin("dyad_fetch")
	fc.tick(time.Millisecond)
	a.End("dyad_fetch")
	a.End("dyad_consume")
	var buf bytes.Buffer
	a.Profile().Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "dyad_consume") || !strings.Contains(out, "dyad_fetch") {
		t.Fatalf("render missing regions:\n%s", out)
	}
}

func TestWalkPaths(t *testing.T) {
	fc := &fakeClock{}
	a := New("p0", fc)
	a.Begin("a")
	a.Begin("b")
	a.End("b")
	a.End("a")
	var paths []string
	a.Profile().Root.Walk(func(path string, _ *Node) { paths = append(paths, path) })
	want := map[string]bool{"/p0": true, "/p0/a": true, "/p0/a/b": true}
	for _, p := range paths {
		if !want[p] {
			t.Fatalf("unexpected path %q in %v", p, paths)
		}
	}
	if len(paths) != 3 {
		t.Fatalf("paths %v", paths)
	}
}

// Regression: the package contract promises the zero value is as inert as
// the nil pointer. (&Annotator{}).Begin used to nil-deref on the nil root.
func TestZeroValueAnnotatorInert(t *testing.T) {
	var a Annotator
	a.Begin("x")
	a.End("x")
	a.End("unopened") // inert: no open-region bookkeeping to violate
	done := a.Region("y")
	done()
	p := a.Profile()
	if p == nil || p.Root == nil {
		t.Fatal("zero-value annotator must still produce an empty profile")
	}
	if len(p.Root.Children) != 0 {
		t.Fatalf("zero-value annotator recorded regions: %+v", p.Root.Children)
	}
	if got := p.TotalOf("x"); got != 0 {
		t.Fatalf("zero-value annotator accumulated time: %v", got)
	}
}

// Regression: TotalOf must not double-count a same-named region nested
// inside another — the inner visit's time is already part of the outer
// node's inclusive total. A retry loop that re-enters "io" inside "io"
// used to inflate TotalOf("io") by the inner time.
func TestTotalOfCountsOutermostOnly(t *testing.T) {
	fc := &fakeClock{}
	a := New("p0", fc)
	a.Begin("io")
	fc.tick(2 * time.Millisecond)
	a.Begin("io") // nested same-named region (e.g. a retry)
	fc.tick(4 * time.Millisecond)
	a.End("io")
	fc.tick(1 * time.Millisecond)
	a.End("io")
	p := a.Profile()
	// Outer inclusive total is 7ms and already contains the nested 4ms.
	if got := p.TotalOf("io"); got != 7*time.Millisecond {
		t.Fatalf("TotalOf(io) = %v, want 7ms (outermost only, no double count)", got)
	}
	// Disjoint occurrences under different parents must still both count.
	a2 := New("p1", fc)
	for _, parent := range []string{"a", "b"} {
		a2.Begin(parent)
		a2.Begin("io")
		fc.tick(3 * time.Millisecond)
		a2.End("io")
		a2.End(parent)
	}
	if got := a2.Profile().TotalOf("io"); got != 6*time.Millisecond {
		t.Fatalf("TotalOf(io) across paths = %v, want 6ms", got)
	}
}

// Regression: Render must be deterministic when children tie on total.
// renderNode used to use sort.Slice, whose pdqsort reorders equal elements
// once a child list is big enough, so two renders of identical profiles
// could disagree. Ties must keep first-visit order.
func TestRenderStableOnTies(t *testing.T) {
	fc := &fakeClock{}
	a := New("p0", fc)
	a.Begin("parent")
	// Interleave two tied groups (2ms "hi", 1ms "lo") so the sort has real
	// work to do; a non-stable sort scrambles within each tied group.
	var hi, lo []string
	for i := 0; i < 16; i++ {
		for _, g := range []struct {
			prefix string
			cost   time.Duration
		}{{"hi", 2 * time.Millisecond}, {"lo", time.Millisecond}} {
			name := fmt.Sprintf("%s%02d", g.prefix, i)
			a.Begin(name)
			fc.tick(g.cost)
			a.End(name)
		}
		hi = append(hi, fmt.Sprintf("hi%02d", i))
		lo = append(lo, fmt.Sprintf("lo%02d", i))
	}
	want := append(append([]string(nil), hi...), lo...)
	a.End("parent")
	var buf bytes.Buffer
	a.Profile().Render(&buf)
	var got []string
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && (strings.HasPrefix(f[0], "hi") || strings.HasPrefix(f[0], "lo")) {
			got = append(got, f[0])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("rendered %d tied children, want %d:\n%s", len(got), len(want), buf.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tied children reordered: position %d is %s, want %s (full order %v)", i, got[i], want[i], got)
		}
	}
}
