// Package fix holds one case of each rule of the dead-code gate, which
// TestDeadCodeGateFixture checks.
package fix

import "fmt"

// Counter's last three fields are written and never read: each one is
// reported.
type Counter struct {
	n        int
	assigned int
	summed   int
	bumped   int
}

// Add counts x.
func (c *Counter) Add(x int) {
	c.n += x
	c.assigned = x
	c.summed += x
	c.bumped++
}

// Total is what Add counted.
func (c *Counter) Total() int { return c.n }

// reset has no caller: it is reported.
func (c *Counter) reset() { *c = Counter{} }

// key is a map key, so its fields count as read.
type key struct{ a, b int }

// point is compared with ==, so its fields count as read.
type point struct{ x, y int }

// record carries a tag, so its fields count as read.
type record struct {
	Name string `json:"name"`
	Size int
}

// stats is printed with %+v, so its fields count as read.
type stats struct{ hits int }

// shape's method is called, so its implementation's method has a caller.
type shape interface{ area() int }

type square struct{ side int }

func (s square) area() int { return s.side * s.side }

// Use makes each of the cases above once.
func Use() string {
	m := map[key]int{{a: 1, b: 2}: 3}
	same := point{x: 1} == point{y: 1}
	r := record{Name: "r", Size: 1}
	var s shape = square{side: 2}
	return fmt.Sprintf("%d %t %s %+v %d", len(m), same, r.Name, stats{hits: 1}, s.area())
}
