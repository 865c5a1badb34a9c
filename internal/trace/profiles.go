package trace

import (
	"repro/internal/caliper"
)

// Profiles folds a run's span stream into per-process caliper call-path
// profiles with paths <proc>/<class>/<name>: the top-level children of each
// profile are the breakdown classes (movement, idle, compute, recovery) and
// beneath each class sit the operation names that contributed to it.
// ClassDetail spans are omitted — they nest inside workflow spans and would
// double-count (Aggregate covers them instead).
//
// The resulting profiles feed the same thicket ensemble analysis the paper
// applies to Caliper data, which is how the -trace breakdown report
// reproduces the Fig. 4-7 movement-vs-idle methodology from spans.
// Processes appear in order of first emission; class and name nodes in
// first-contribution order — all deterministic for a deterministic stream.
func Profiles(spans []Span) []*caliper.Profile {
	type procTree struct {
		proc string
		root *caliper.Node
	}
	var procs []procTree
	idx := make(map[string]int)
	for _, s := range spans {
		if s.Class == ClassDetail {
			continue
		}
		i, ok := idx[s.Proc]
		if !ok {
			i = len(procs)
			idx[s.Proc] = i
			procs = append(procs, procTree{proc: s.Proc, root: &caliper.Node{Name: s.Proc, Visits: 1}})
		}
		class := childNode(procs[i].root, s.Class.String())
		class.Visits++
		class.Total += s.Dur
		op := childNode(class, s.Name)
		op.Visits++
		op.Total += s.Dur
	}
	out := make([]*caliper.Profile, len(procs))
	for i, pt := range procs {
		out[i] = &caliper.Profile{Proc: pt.proc, Root: pt.root}
	}
	return out
}

// childNode finds or appends the named child, preserving insertion order,
// so children keep first-visit order as in sim.Proc.Profile.
func childNode(n *caliper.Node, name string) *caliper.Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	c := &caliper.Node{Name: name}
	n.Children = append(n.Children, c)
	return c
}
