package caliper

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// node builds a profile node visited once.
func node(name string, total time.Duration, children ...*Node) *Node {
	return &Node{Name: name, Visits: 1, Total: total, Children: children}
}

// profile builds the profile of process p0 whose root holds children.
func profile(children ...*Node) *Profile {
	return &Profile{Proc: "p0", Root: &Node{Name: "p0", Children: children}}
}

func TestJSONRoundTrip(t *testing.T) {
	p := profile(node("r", 7*time.Millisecond))

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

// A null node anywhere in the tree is an error, not a profile that panics
// whoever walks it.
func TestReadJSONRejectsNullNode(t *testing.T) {
	for _, in := range []string{
		`{"proc":"a","root":null}`,
		`{"proc":"a","root":{"name":"r","children":[null]}}`,
		`{"proc":"a","root":{"name":"r","children":[{"name":"c","children":[{"name":"d"},null]}]}}`,
	} {
		if p, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted as %+v", in, p)
		}
	}
}

func TestRenderShowsTree(t *testing.T) {
	p := profile(node("dyad_consume", time.Millisecond, node("dyad_fetch", time.Millisecond)))
	var buf bytes.Buffer
	p.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "dyad_consume") || !strings.Contains(out, "dyad_fetch") {
		t.Fatalf("render missing regions:\n%s", out)
	}
}

func TestTotalOfSumsAcrossPaths(t *testing.T) {
	p := profile(
		node("a", time.Millisecond, node("io", time.Millisecond)),
		node("b", 3*time.Millisecond, node("io", 3*time.Millisecond)))
	if got := p.TotalOf("io"); got != 4*time.Millisecond {
		t.Fatalf("TotalOf(io) = %v, want 4ms", got)
	}
}

// Regression: Render must be deterministic when children tie on total.
// renderNode used to use sort.Slice, whose pdqsort reorders equal elements
// once a child list is big enough, so two renders of identical profiles
// could disagree. Ties must keep first-visit order.
func TestRenderStableOnTies(t *testing.T) {
	parent := node("parent", 0)
	// Interleave two tied groups (2ms "hi", 1ms "lo") so the sort has real
	// work to do; a non-stable sort scrambles within each tied group.
	var hi, lo []string
	for i := 0; i < 16; i++ {
		for _, g := range []struct {
			prefix string
			cost   time.Duration
		}{{"hi", 2 * time.Millisecond}, {"lo", time.Millisecond}} {
			parent.Children = append(parent.Children, node(fmt.Sprintf("%s%02d", g.prefix, i), g.cost))
			parent.Total += g.cost
		}
		hi = append(hi, fmt.Sprintf("hi%02d", i))
		lo = append(lo, fmt.Sprintf("lo%02d", i))
	}
	want := append(append([]string(nil), hi...), lo...)
	var buf bytes.Buffer
	profile(parent).Render(&buf)
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
