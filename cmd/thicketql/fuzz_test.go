package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzRun drives the command on one profile file and one query, as
// `thicketql -q query file` does. Whatever the bytes, run must not panic:
// it either succeeds with nothing on stderr, or fails with exactly one
// thicketql line there. Seeds are under testdata/fuzz/FuzzRun.
func FuzzRun(f *testing.F) {
	path := filepath.Join(f.TempDir(), "profile.json")
	f.Fuzz(func(t *testing.T, profile []byte, query string) {
		if err := os.WriteFile(path, profile, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := run([]string{"-q", query, path}, &stdout, &stderr)
		errOut := stderr.String()
		if code == 0 {
			if errOut != "" {
				t.Fatalf("exit 0 with stderr %q", errOut)
			}
			return
		}
		if strings.Count(errOut, "\n") != 1 || !strings.HasSuffix(errOut, "\n") || !strings.HasPrefix(errOut, "thicketql: ") {
			t.Fatalf("exit %d with stderr %q, want one thicketql line", code, errOut)
		}
	})
}
