package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the command and returns (exit code, stdout, stderr).
func capture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// The demo runs a fixed seed: two invocations print the same bytes, for
// either role, and the roles differ.
func TestDemoIsDeterministic(t *testing.T) {
	var first string
	for _, role := range []string{"consumer", "producer"} {
		args := []string{"-demo", "-role", role, "-q", "//*"}
		code, a, errOut := capture(t, args...)
		if code != 0 || errOut != "" {
			t.Fatalf("-role %s: exit %d, stderr %q", role, code, errOut)
		}
		if !strings.HasPrefix(a, "ensemble of 4 profiles") || !strings.Contains(a, "match(es)") {
			t.Fatalf("-role %s: unexpected output:\n%s", role, a)
		}
		if _, b, _ := capture(t, args...); a != b {
			t.Fatalf("-role %s: two demo runs differ:\n%s\nthen\n%s", role, a, b)
		}
		if a == first {
			t.Fatal("producer and consumer demos print the same ensemble")
		}
		first = a
	}
}

// A profile with a null child is refused as a failure: exit 1 and one
// stderr line, not a panic in the ensemble merge.
func TestNullChildIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.json")
	if err := os.WriteFile(path, []byte(`{"proc":"a","root":{"name":"r","children":[null]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := capture(t, path)
	if code != 1 || out != "" {
		t.Fatalf("exit %d, stdout %q; want 1 and nothing", code, out)
	}
	if strings.Count(errOut, "\n") != 1 || !strings.HasPrefix(errOut, "thicketql: ") || !strings.Contains(errOut, "null node") {
		t.Fatalf("stderr %q, want one thicketql line naming the null node", errOut)
	}
}

// An unknown role is a usage error, caught before any run: exit 2, one
// stderr line, nothing on stdout.
func TestUnknownRoleIsUsageError(t *testing.T) {
	code, out, errOut := capture(t, "-demo", "-role", "analytics")
	if code != 2 || out != "" {
		t.Fatalf("exit %d, stdout %q; want 2 and nothing", code, out)
	}
	if strings.Count(errOut, "\n") != 1 || !strings.HasPrefix(errOut, "thicketql: ") || !strings.Contains(errOut, `"analytics"`) {
		t.Fatalf("stderr %q, want one thicketql line naming the role", errOut)
	}
}
