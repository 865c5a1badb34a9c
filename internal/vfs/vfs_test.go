package vfs

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// refClean is the split/join Clean with no fast path: the reference the
// fast path must agree with on every input.
func refClean(path string) string {
	parts := strings.Split(path, "/")
	out := parts[:0]
	for _, s := range parts {
		if s != "" && s != "." {
			out = append(out, s)
		}
	}
	return "/" + strings.Join(out, "/")
}

func TestCleanPaths(t *testing.T) {
	cases := map[string]string{
		"a/b":        "/a/b",
		"/a/b":       "/a/b",
		"//a///b/":   "/a/b",
		"./a/./b":    "/a/b",
		"":           "/",
		"/":          "/",
		"a":          "/a",
		"/dyad/f.pb": "/dyad/f.pb",
		"/.":         "/",
		"/a/.":       "/a",
		"/.a/b.":     "/.a/b.",
		"/a/../b":    "/a/../b", // ".." is kept, never resolved
		"..":         "/..",
	}
	for in, want := range cases {
		if got := Clean(in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTreePutGetRemove(t *testing.T) {
	tr := NewTree(sim.NewEngine(1))
	if _, ok := tr.Get("/x"); ok {
		t.Fatal("empty tree should miss")
	}
	tr.Put("/a/b", BytesPayload([]byte("hello")))
	got, ok := tr.Get("a/b") // equivalent path spelling
	if !ok || string(got.Bytes()) != "hello" {
		t.Fatalf("Get = %q, %v", got.Bytes(), ok)
	}
	if sz, ok := tr.Size("/a/b"); !ok || sz != 5 {
		t.Fatalf("Size = %d, %v", sz, ok)
	}
	tr.Put("/a/b", BytesPayload([]byte("replaced")))
	got, _ = tr.Get("/a/b")
	if string(got.Bytes()) != "replaced" {
		t.Fatalf("replace failed: %q", got.Bytes())
	}
	if !tr.Remove("/a/b") {
		t.Fatal("remove existing returned false")
	}
	if tr.Remove("/a/b") {
		t.Fatal("remove missing returned true")
	}
}

func TestTreeListAndTotals(t *testing.T) {
	tr := NewTree(sim.NewEngine(1))
	tr.Put("/d/1", SizeOnly(10))
	tr.Put("/d/2", BytesPayload(make([]byte, 20)))
	tr.Put("/e/3", SizeOnly(30))
	var total int64
	for _, pl := range tr.files {
		total += pl.Size()
	}
	if total != 60 {
		t.Fatalf("total bytes = %d", total)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// Property: whatever bytes are Put are Get back unchanged (same backing
// buffer — zero-copy), and Size agrees.
func TestTreeRoundTripProperty(t *testing.T) {
	f := func(path string, data []byte) bool {
		tr := NewTree(sim.NewEngine(1))
		tr.Put(path, BytesPayload(data))
		got, ok := tr.Get(path)
		if !ok || got.Size() != int64(len(data)) {
			return false
		}
		b := got.Bytes()
		for i := range data {
			if b[i] != data[i] {
				return false
			}
		}
		if len(data) > 0 && &b[0] != &data[0] {
			return false // payload must alias, not copy
		}
		sz, ok := tr.Size(path)
		return ok && sz == int64(len(data))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Clean is idempotent.
func TestCleanIdempotentProperty(t *testing.T) {
	f := func(p string) bool {
		c := Clean(p)
		return Clean(c) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A canonical path is returned without a copy: the fast path allocates
// nothing, so every layer may re-clean a frame path for free.
func TestCleanCanonicalZeroAllocs(t *testing.T) {
	for _, p := range []string{"/", "/a", "/ensemble/pair1023/frame00003.pb", "/a/../b"} {
		if got := testing.AllocsPerRun(100, func() { _ = Clean(p) }); got != 0 {
			t.Errorf("Clean(%q) allocates %.0f objects, want 0", p, got)
		}
	}
}

// FuzzClean checks the fast path against the split/join reference: the
// same result on every input, idempotence, and no allocation when the
// input is already canonical.
func FuzzClean(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		got, want := Clean(s), refClean(s)
		if got != want {
			t.Fatalf("Clean(%q) = %q, reference %q", s, got, want)
		}
		if again := Clean(got); again != got {
			t.Fatalf("Clean(Clean(%q)) = %q, want %q", s, again, got)
		}
		if want == s {
			if n := testing.AllocsPerRun(10, func() { _ = Clean(s) }); n != 0 {
				t.Fatalf("Clean(%q) of a canonical path allocates %.0f objects", s, n)
			}
		}
	})
}
