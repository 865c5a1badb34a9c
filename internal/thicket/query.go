package thicket

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Query runs a call-path query against the ensemble and returns matching
// nodes. The language is a small Hatchet-style path grammar:
//
//	/a/b          — node b whose parent is a, rooted at the tree top
//	//b           — node b at any depth
//	//a/*/c       — c exactly two levels under any a, with any name between
//	//x[mean>1ms] — metric predicate: metric in {mean, std, max, min,
//	                visits}, operator in {>, >=, <, <=, ==}, durations
//	                accept ns/us/µs/ms/s suffixes
//
// Every segment may carry a predicate. A leading // makes the first
// segment match at any depth; deeper segments are parent-child steps.
func (e *Ensemble) Query(q string) ([]*Node, error) {
	segs, anywhere, err := parseQuery(q)
	if err != nil {
		return nil, err
	}
	var out []*Node
	seen := make(map[*Node]bool)
	var starts []*Node
	if anywhere {
		e.root.Walk(func(n *Node) {
			if n != e.root && segs[0].matches(n) {
				starts = append(starts, n)
			}
		})
	} else {
		for _, c := range e.root.Children {
			if segs[0].matches(c) {
				starts = append(starts, c)
			}
		}
	}
	for _, s := range starts {
		collectMatches(s, segs[1:], seen, &out)
	}
	return out, nil
}

func collectMatches(n *Node, rest []segment, seen map[*Node]bool, out *[]*Node) {
	if len(rest) == 0 {
		if !seen[n] {
			seen[n] = true
			*out = append(*out, n)
		}
		return
	}
	for _, c := range n.Children {
		if rest[0].matches(c) {
			collectMatches(c, rest[1:], seen, out)
		}
	}
}

// segment is one path step with an optional predicate.
type segment struct {
	name string // "*" matches any
	pred *predicate
}

type predicate struct {
	metric string
	op     string
	value  float64
}

func (s segment) matches(n *Node) bool {
	if s.name != "*" && s.name != n.Name {
		return false
	}
	if s.pred == nil {
		return true
	}
	var v float64
	switch s.pred.metric {
	case "mean":
		v = n.Total.Mean
	case "std":
		v = n.Total.Std
	case "max":
		v = n.Total.Max
	case "min":
		v = n.Total.Min
	case "visits":
		v = n.Visits.Mean
	default:
		return false
	}
	switch s.pred.op {
	case ">":
		return v > s.pred.value
	case ">=":
		return v >= s.pred.value
	case "<":
		return v < s.pred.value
	case "<=":
		return v <= s.pred.value
	case "==":
		return v == s.pred.value
	}
	return false
}

func parseQuery(q string) (segs []segment, anywhere bool, err error) {
	q = strings.TrimSpace(q)
	if q == "" {
		return nil, false, fmt.Errorf("thicket: empty query")
	}
	if strings.HasPrefix(q, "//") {
		anywhere = true
		q = q[2:]
	} else if strings.HasPrefix(q, "/") {
		q = q[1:]
	} else {
		return nil, false, fmt.Errorf("thicket: query must start with / or //")
	}
	if q == "" {
		return nil, false, fmt.Errorf("thicket: query has no segments")
	}
	for _, part := range strings.Split(q, "/") {
		if part == "" {
			return nil, false, fmt.Errorf("thicket: empty segment in %q", q)
		}
		seg, err := parseSegment(part)
		if err != nil {
			return nil, false, err
		}
		segs = append(segs, seg)
	}
	return segs, anywhere, nil
}

func parseSegment(s string) (segment, error) {
	name := s
	var pred *predicate
	if i := strings.IndexByte(s, '['); i >= 0 {
		if !strings.HasSuffix(s, "]") {
			return segment{}, fmt.Errorf("thicket: unterminated predicate in %q", s)
		}
		name = s[:i]
		p, err := parsePredicate(s[i+1 : len(s)-1])
		if err != nil {
			return segment{}, err
		}
		pred = p
	}
	if name == "" {
		return segment{}, fmt.Errorf("thicket: segment %q has no name", s)
	}
	return segment{name: name, pred: pred}, nil
}

func parsePredicate(s string) (*predicate, error) {
	for _, op := range []string{">=", "<=", "==", ">", "<"} {
		if i := strings.Index(s, op); i > 0 {
			metric := strings.TrimSpace(s[:i])
			valStr := strings.TrimSpace(s[i+len(op):])
			val, err := parseMetricValue(metric, valStr)
			if err != nil {
				return nil, err
			}
			switch metric {
			case "mean", "std", "max", "min", "visits":
			default:
				return nil, fmt.Errorf("thicket: unknown metric %q", metric)
			}
			return &predicate{metric: metric, op: op, value: val}, nil
		}
	}
	return nil, fmt.Errorf("thicket: cannot parse predicate %q", s)
}

// parseMetricValue parses either a plain float (visits) or a duration with
// unit suffix, returned in seconds (time metrics).
func parseMetricValue(metric, s string) (float64, error) {
	if metric == "visits" {
		return strconv.ParseFloat(s, 64)
	}
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("thicket: bad value %q: %w", s, err)
	}
	return v, nil
}
