package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// digestCase is one invocation of the command whose stdout and artifacts
// are pinned by SHA-256 in testdata/digests.txt. Each name in files is an
// artifact flag: the test passes it a file in a fresh directory and
// digests what the run wrote there.
type digestCase struct {
	name  string
	flags []string
	files []string
	ids   []string
}

var digestCases = []digestCase{
	{name: "all-j1", flags: []string{"-quick", "-q", "-j", "1"}, ids: []string{"all"}},
	{name: "all-j8", flags: []string{"-quick", "-q", "-j", "8"}, ids: []string{"all"}},
	{
		name:  "artifacts",
		flags: []string{"-quick", "-q"},
		files: []string{"trace", "metrics", "metrics-prom", "critpath"},
		ids:   []string{"fig5", "fig6", "fig9", "fig10", "faultsweep"},
	},
	{
		name:  "capacity",
		flags: []string{"-quick", "-q"},
		files: []string{"trace", "metrics", "metrics-prom", "critpath"},
		ids:   []string{"capsweep"},
	},
	{name: "headstart", flags: []string{"-quick", "-q", "-headstart", "375ms"}, ids: []string{"fig5", "fig6"}},
	{name: "explain", flags: []string{"-q", "-quick", "-reps", "1", "-frames", "16"}, ids: []string{"explain", "fig5", "fig6"}},
	{name: "calibrate", flags: []string{"-q", "-quick", "-reps", "1", "-frames", "16", "-budget", "6"}, ids: []string{"calibrate"}},
	{name: "search", flags: []string{"-q", "-quick", "-reps", "1", "-frames", "16"}, ids: []string{"search", "xfs-beats-dyad", "fault-breaks-10x"}},
}

// TestOutputDigests is byte identity as a test: each case runs the command
// in-process and compares the SHA-256 of its stdout and of every artifact
// with testdata/digests.txt, one "<case> <output> <sha256>" line each. A
// digest may change only with a declared model change; on a mismatch the
// test prints the new line to paste. Under -race only the all-j8 case
// runs, since the detector multiplies the cost of the rest; the race
// build's cross-worker comparisons live in verify.sh.
func TestOutputDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are taken on amd64; the compiler may fuse float multiply-adds on %s", runtime.GOARCH)
	}
	want := readDigests(t, filepath.Join("testdata", "digests.txt"))
	for _, c := range digestCases {
		if raceEnabled && c.name != "all-j8" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string(nil), c.flags...)
			for _, f := range c.files {
				args = append(args, "-"+f, filepath.Join(dir, f))
			}
			args = append(args, c.ids...)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d, stderr: %s", args, code, stderr.String())
			}
			got := map[string][]byte{"stdout": stdout.Bytes()}
			for _, f := range c.files {
				b, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				got[f] = b
			}
			for _, out := range append([]string{"stdout"}, c.files...) {
				key := c.name + " " + out
				sum := sha256.Sum256(got[out])
				if hex.EncodeToString(sum[:]) != want[key] {
					t.Errorf("%s (%d bytes) changed; new digest line:\n%s %x", key, len(got[out]), key, sum)
				}
			}
		})
	}
}

// readDigests parses "<case> <output> <sha256>" lines into a map keyed by
// "<case> <output>".
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	digests := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		digests[fields[0]+" "+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(digests) == 0 {
		t.Fatalf("%s: no digests", path)
	}
	return digests
}
