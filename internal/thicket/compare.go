package thicket

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Comparison relates the same call paths across two ensembles — the
// operation behind the paper's Figures 9 and 10, which set a JAC tree and
// an STMV tree side by side and reason about per-region ratios.
type Comparison struct {
	// Rows are aligned by call path, ordered by the left ensemble's mean.
	Rows []ComparisonRow
}

// ComparisonRow is one call path's cross-ensemble relation.
type ComparisonRow struct {
	Path  string
	Name  string
	Left  stats.Summary // inclusive seconds in ensemble A
	Right stats.Summary // inclusive seconds in ensemble B
	// Ratio is Right.Mean / Left.Mean (NaN when the left mean is zero).
	Ratio float64
}

// Compare aligns two ensembles by call path. Paths present in only one
// ensemble appear with a zero summary on the other side.
func Compare(a, b *Ensemble) *Comparison {
	type cell struct {
		name        string
		left, right stats.Summary
	}
	cells := map[string]*cell{}
	collect := func(e *Ensemble, right bool) {
		var walk func(n *Node, prefix string)
		walk = func(n *Node, prefix string) {
			path := prefix + "/" + n.Name
			c, ok := cells[path]
			if !ok {
				c = &cell{name: n.Name}
				cells[path] = c
			}
			if right {
				c.right = n.Total
			} else {
				c.left = n.Total
			}
			for _, ch := range n.Children {
				walk(ch, path)
			}
		}
		for _, ch := range e.root.Children {
			walk(ch, "")
		}
	}
	collect(a, false)
	collect(b, true)

	cmp := &Comparison{}
	for path, c := range cells {
		cmp.Rows = append(cmp.Rows, ComparisonRow{
			Path:  path,
			Name:  c.name,
			Left:  c.left,
			Right: c.right,
			Ratio: stats.Ratio(c.right.Mean, c.left.Mean),
		})
	}
	sort.Slice(cmp.Rows, func(i, j int) bool {
		if cmp.Rows[i].Left.Mean != cmp.Rows[j].Left.Mean {
			return cmp.Rows[i].Left.Mean > cmp.Rows[j].Left.Mean
		}
		return cmp.Rows[i].Path < cmp.Rows[j].Path
	})
	return cmp
}

// Render writes the aligned comparison table.
func (c *Comparison) Render(w io.Writer, leftLabel, rightLabel string) {
	fmt.Fprintf(w, "%-34s %-14s %-14s %s\n", "call path", leftLabel, rightLabel, "ratio")
	for _, r := range c.Rows {
		depth := strings.Count(r.Path, "/") - 1
		fmt.Fprintf(w, "%-34s %-14s %-14s %s\n",
			strings.Repeat("  ", depth)+r.Name,
			stats.FormatSeconds(r.Left.Mean),
			stats.FormatSeconds(r.Right.Mean),
			stats.FormatRatio(r.Ratio))
	}
}
