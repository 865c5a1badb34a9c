// Package caliper holds hierarchical call-path profiles in the spirit of
// LLNL's Caliper: a process's regions nest, and each call path records its
// visits and inclusive time. A simulated process records its own profile
// (sim.Proc.KeepProfile, sim.Proc.Profile); this package is the finished
// profile, its JSON form, its render and its queries. Profiles feed the
// thicket package, which performs the cross-run analysis the paper uses to
// split producer/consumer time into data movement and idle time.
package caliper

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Node is one call-path node of a profile.
type Node struct {
	Name     string        `json:"name"`
	Visits   int64         `json:"visits"`
	Total    time.Duration `json:"total"` // inclusive time
	Children []*Node       `json:"children,omitempty"`
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

// ReadJSON deserializes a profile written by WriteJSON. It rejects a
// profile whose root, or any node below it, is null.
func ReadJSON(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("caliper: decode profile: %w", err)
	}
	if p.Root == nil {
		return nil, fmt.Errorf("caliper: profile has no root")
	}
	if hasNull(p.Root.Children) {
		return nil, fmt.Errorf("caliper: profile has a null node")
	}
	return &p, nil
}

// hasNull reports whether any of nodes, or any node below them, is nil.
func hasNull(nodes []*Node) bool {
	for _, n := range nodes {
		if n == nil || hasNull(n.Children) {
			return true
		}
	}
	return false
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
