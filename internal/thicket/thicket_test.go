package thicket

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/caliper"
)

// find returns the first node of n's tree (depth-first, n included) with
// the given name, or nil.
func find(n *Node, name string) *Node {
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if f := find(c, name); f != nil {
			return f
		}
	}
	return nil
}

// node builds a profile node visited once.
func node(name string, total time.Duration, children ...*caliper.Node) *caliper.Node {
	return &caliper.Node{Name: name, Visits: 1, Total: total, Children: children}
}

// profileOf builds the profile of process proc whose root holds children.
func profileOf(proc string, children ...*caliper.Node) *caliper.Profile {
	return &caliper.Profile{Proc: proc, Root: &caliper.Node{Name: proc, Children: children}}
}

// consumeProfile is a DYAD consumer's profile of one frame.
func consumeProfile(proc string, fetch, get, read time.Duration) *caliper.Profile {
	return profileOf(proc, node("dyad_consume", fetch+get+read,
		node("dyad_fetch", fetch), node("dyad_get_data", get), node("read_single_buf", read)))
}

func TestEnsembleMergesByPath(t *testing.T) {
	profiles := []*caliper.Profile{
		consumeProfile("c0", 10*time.Millisecond, 20*time.Millisecond, 5*time.Millisecond),
		consumeProfile("c1", 30*time.Millisecond, 40*time.Millisecond, 15*time.Millisecond),
	}
	e := FromProfiles(profiles)
	if e.Members() != 2 {
		t.Fatalf("members %d", e.Members())
	}
	fetch := find(e.root, "dyad_fetch")
	if fetch == nil {
		t.Fatal("dyad_fetch missing")
	}
	if math.Abs(fetch.Total.Mean-0.020) > 1e-9 {
		t.Fatalf("fetch mean %v, want 0.020", fetch.Total.Mean)
	}
	if fetch.Total.Min != 0.010 || fetch.Total.Max != 0.030 {
		t.Fatalf("fetch min/max %v/%v", fetch.Total.Min, fetch.Total.Max)
	}
	consume := find(e.root, "dyad_consume")
	if math.Abs(consume.Total.Mean-0.060) > 1e-9 {
		t.Fatalf("consume mean %v, want 0.060", consume.Total.Mean)
	}
}

func TestMemberMissingNodeCountsZero(t *testing.T) {
	withGet := consumeProfile("c0", 0, 10*time.Millisecond, 0)
	withoutGet := profileOf("c1", node("dyad_consume", 4*time.Millisecond, node("read_single_buf", 4*time.Millisecond)))
	e := FromProfiles([]*caliper.Profile{withGet, withoutGet})
	get := find(e.root, "dyad_get_data")
	if len(get.totals) != 2 {
		t.Fatalf("get has %d totals, want 2 (zero-padded)", len(get.totals))
	}
	if math.Abs(get.Total.Mean-0.005) > 1e-9 {
		t.Fatalf("get mean %v, want 0.005", get.Total.Mean)
	}
}

func TestQueryRootedAndAnywhere(t *testing.T) {
	e := FromProfiles([]*caliper.Profile{consumeProfile("c0", time.Millisecond, time.Millisecond, time.Millisecond)})
	rooted, err := e.Query("/dyad_consume/dyad_fetch")
	if err != nil {
		t.Fatal(err)
	}
	if len(rooted) != 1 || rooted[0].Name != "dyad_fetch" {
		t.Fatalf("rooted query got %v", rooted)
	}
	anywhere, err := e.Query("//dyad_fetch")
	if err != nil {
		t.Fatal(err)
	}
	if len(anywhere) != 1 {
		t.Fatalf("anywhere query got %d nodes", len(anywhere))
	}
	// A rooted query for a non-top-level node finds nothing.
	none, err := e.Query("/dyad_fetch")
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("rooted non-top query got %d nodes", len(none))
	}
}

func TestQueryWildcardAndPredicate(t *testing.T) {
	e := FromProfiles([]*caliper.Profile{consumeProfile("c0", 10*time.Millisecond, 30*time.Millisecond, time.Millisecond)})
	all, err := e.Query("/dyad_consume/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("wildcard matched %d children, want 3", len(all))
	}
	heavy, err := e.Query("/dyad_consume/*[mean>5ms]")
	if err != nil {
		t.Fatal(err)
	}
	if len(heavy) != 2 {
		t.Fatalf("predicate matched %d, want 2 (fetch, get_data)", len(heavy))
	}
	visits, err := e.Query("//dyad_fetch[visits>=1]")
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != 1 {
		t.Fatalf("visits predicate matched %d", len(visits))
	}
}

func TestQueryErrors(t *testing.T) {
	e := FromProfiles(nil)
	for _, q := range []string{"", "noslash", "//", "/a//b", "//a[mean!5]", "//a[bogus>1]", "/a[mean>xyz]"} {
		if _, err := e.Query(q); err == nil {
			t.Errorf("query %q accepted", q)
		}
	}
}

func TestMeanOfAndRender(t *testing.T) {
	e := FromProfiles([]*caliper.Profile{
		consumeProfile("c0", 10*time.Millisecond, 0, 0),
		consumeProfile("c1", 20*time.Millisecond, 0, 0),
	})
	if got := e.MeanOf("dyad_fetch"); got != 15*time.Millisecond {
		t.Fatalf("MeanOf = %v, want 15ms", got)
	}
	if got := e.MeanOf("nonexistent"); got != 0 {
		t.Fatalf("MeanOf missing = %v, want 0", got)
	}
	var buf bytes.Buffer
	e.Render(&buf)
	for _, want := range []string{"workflow", "dyad_consume", "dyad_fetch", "mean="} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("render missing %q:\n%s", want, buf.String())
		}
	}
}

func TestDurationUnitsInPredicates(t *testing.T) {
	e := FromProfiles([]*caliper.Profile{consumeProfile("c0", 1500*time.Microsecond, 0, 0)})
	hits, err := e.Query("//dyad_fetch[mean>1ms]")
	if err != nil || len(hits) != 1 {
		t.Fatalf("ms predicate: %v, %d hits", err, len(hits))
	}
	hits, err = e.Query("//dyad_fetch[mean<2000us]")
	if err != nil || len(hits) != 1 {
		t.Fatalf("us predicate: %v, %d hits", err, len(hits))
	}
	hits, err = e.Query("//dyad_fetch[mean>1s]")
	if err != nil || len(hits) != 0 {
		t.Fatalf("s predicate: %v, %d hits", err, len(hits))
	}
}
