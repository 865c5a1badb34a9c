// Package thicket performs the cross-run performance analysis the paper
// does with LLNL's Thicket: it ensembles Caliper call-path profiles from
// many processes and repetitions into a single statistical call tree, and
// offers a small Hatchet-style query language for locating regions
// (e.g. the dyad_fetch / dyad_get_data / explicit_sync analyses of
// Figures 9 and 10).
package thicket

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/caliper"
	"repro/internal/stats"
)

// Node is one call-path node of the ensembled tree, carrying the
// distribution of inclusive time and visit counts across members.
type Node struct {
	Name     string
	Children []*Node

	// Total is the distribution of inclusive seconds across members
	// (members missing the node contribute zero).
	Total stats.Summary
	// Visits is the distribution of visit counts across members.
	Visits stats.Summary

	totals []float64
	visits []float64
}

// Walk visits the node and all descendants depth-first.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

func (n *Node) child(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	c := &Node{Name: name}
	n.Children = append(n.Children, c)
	return c
}

// Ensemble is a set of profiles merged by call path.
type Ensemble struct {
	root    *Node
	members int
}

// FromProfiles builds an ensemble. Each profile is one member; the
// profiles' own root names (process names) are discarded so that
// same-role processes and repetitions align on call paths.
func FromProfiles(profiles []*caliper.Profile) *Ensemble {
	e := &Ensemble{root: &Node{Name: "workflow"}, members: len(profiles)}
	for idx, p := range profiles {
		for _, top := range p.Root.Children {
			mergeInto(e.root, top, idx)
		}
	}
	// Pad members that never touched a node with zeros, then summarize.
	e.root.Walk(func(n *Node) {
		for len(n.totals) < e.members {
			n.totals = append(n.totals, 0)
			n.visits = append(n.visits, 0)
		}
		n.Total = stats.Summarize(n.totals)
		n.Visits = stats.Summarize(n.visits)
	})
	return e
}

// mergeInto adds caliper node src (and descendants) under dst for member
// idx.
func mergeInto(dst *Node, src *caliper.Node, idx int) {
	n := dst.child(src.Name)
	// Grow the per-member slices up to idx, then accumulate (a member may
	// hit the same path via multiple parents of the same name).
	for len(n.totals) <= idx {
		n.totals = append(n.totals, 0)
		n.visits = append(n.visits, 0)
	}
	n.totals[idx] += src.Total.Seconds()
	n.visits[idx] += float64(src.Visits)
	for _, c := range src.Children {
		mergeInto(n, c, idx)
	}
}

// Members returns the number of profiles ensembled.
func (e *Ensemble) Members() int { return e.members }

// MeanOf returns the mean inclusive time of all nodes named name (summed
// per member first, so nested duplicates are not double counted beyond
// their actual occurrence).
func (e *Ensemble) MeanOf(name string) time.Duration {
	var sum float64
	var found bool
	e.root.Walk(func(n *Node) {
		if n.Name == name {
			sum += n.Total.Mean
			found = true
		}
	})
	if !found {
		return 0
	}
	return time.Duration(sum * float64(time.Second))
}

// Render pretty-prints the statistical call tree, heaviest children first,
// in the style the paper shows Thicket trees (mean ± std, visits).
func (e *Ensemble) Render(w io.Writer) {
	renderNode(w, e.root, 0)
}

func renderNode(w io.Writer, n *Node, depth int) {
	fmt.Fprintf(w, "%s%-28s mean=%-12s std=%-12s visits=%.0f\n",
		strings.Repeat("  ", depth), n.Name,
		stats.FormatSeconds(n.Total.Mean), stats.FormatSeconds(n.Total.Std), n.Visits.Mean)
	kids := append([]*Node(nil), n.Children...)
	// Stable sort: ties on mean total keep merge (first-contribution)
	// order — same determinism contract as caliper's renderNode.
	sort.SliceStable(kids, func(i, j int) bool { return kids[i].Total.Mean > kids[j].Total.Mean })
	for _, c := range kids {
		renderNode(w, c, depth+1)
	}
}
