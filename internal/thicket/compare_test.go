package thicket

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/caliper"
)

// row returns c's first row whose node name matches, or nil.
func row(c *Comparison, name string) *ComparisonRow {
	for i := range c.Rows {
		if c.Rows[i].Name == name {
			return &c.Rows[i]
		}
	}
	return nil
}

func TestCompareAlignsByPath(t *testing.T) {
	jac := FromProfiles([]*caliper.Profile{
		consumeProfile("c0", 10*time.Millisecond, 20*time.Millisecond, 5*time.Millisecond),
	})
	stmv := FromProfiles([]*caliper.Profile{
		consumeProfile("c0", 5*time.Millisecond, 200*time.Millisecond, 50*time.Millisecond),
	})
	cmp := Compare(jac, stmv)
	get := row(cmp, "dyad_get_data")
	if get == nil {
		t.Fatal("dyad_get_data missing")
	}
	if math.Abs(get.Ratio-10) > 1e-9 {
		t.Fatalf("get_data ratio %v, want 10", get.Ratio)
	}
	fetch := row(cmp, "dyad_fetch")
	if math.Abs(fetch.Ratio-0.5) > 1e-9 {
		t.Fatalf("fetch ratio %v, want 0.5", fetch.Ratio)
	}
	// Rows sorted by left mean descending: dyad_consume first.
	if cmp.Rows[0].Name != "dyad_consume" {
		t.Fatalf("first row %q", cmp.Rows[0].Name)
	}
}

func TestCompareHandlesMissingPaths(t *testing.T) {
	withGet := FromProfiles([]*caliper.Profile{
		consumeProfile("c0", time.Millisecond, 2*time.Millisecond, time.Millisecond),
	})
	withoutGet := FromProfiles([]*caliper.Profile{
		profileOf("c1", node("dyad_consume", 4*time.Millisecond)),
	})
	cmp := Compare(withGet, withoutGet)
	get := row(cmp, "dyad_get_data")
	if get == nil {
		t.Fatal("path present in only one ensemble dropped")
	}
	if get.Right.Mean != 0 {
		t.Fatalf("missing side mean %v, want 0", get.Right.Mean)
	}
	if get.Ratio != 0 {
		t.Fatalf("ratio %v, want 0", get.Ratio)
	}
}

func TestCompareRender(t *testing.T) {
	a := FromProfiles([]*caliper.Profile{consumeProfile("c0", time.Millisecond, time.Millisecond, time.Millisecond)})
	b := FromProfiles([]*caliper.Profile{consumeProfile("c0", 2*time.Millisecond, 2*time.Millisecond, 2*time.Millisecond)})
	var buf bytes.Buffer
	Compare(a, b).Render(&buf, "JAC", "STMV")
	out := buf.String()
	for _, want := range []string{"JAC", "STMV", "dyad_consume", "2.0x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
