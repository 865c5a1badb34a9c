package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// digestCase is one invocation of the command whose stdout and artifacts
// are pinned by SHA-256 in testdata/digests.txt. Each name in files is an
// artifact flag: the test passes it a file in a fresh directory and
// digests what the run wrote there. The case runs once per leg of
// digestLegs and once per leg of also, and every leg must write the same
// pinned bytes.
type digestCase struct {
	name  string
	flags []string
	files []string
	ids   []string
	also  [][]string
}

// digestLegs are the worker counts every case runs at: results must not
// depend on how runs are spread across workers.
var digestLegs = [][]string{{"-j", "1"}, {"-j", "8"}}

var digestCases = []digestCase{
	// An explicit zero head start is the default.
	{name: "all", flags: []string{"-quick", "-q"}, ids: []string{"all"}, also: [][]string{{"-j", "8", "-headstart", "0"}}},
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
// in-process at every leg and compares the SHA-256 of its stdout and of
// every artifact with testdata/digests.txt, one "<case> <output> <sha256>"
// line each. A digest may change only with a declared model change; on a
// mismatch the test prints the new line to paste. A case with artifacts
// also runs without them (sinks-off): observation must leave the report
// unchanged apart from the sinks' own reports. Under -race each case runs
// only its -j 8 leg, since the detector multiplies the cost of the rest.
func TestOutputDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are taken on amd64; the compiler may fuse float multiply-adds on %s", runtime.GOARCH)
	}
	want := readDigests(t, filepath.Join("testdata", "digests.txt"))
	for _, c := range digestCases {
		t.Run(c.name, func(t *testing.T) {
			legs := append(append([][]string(nil), digestLegs...), c.also...)
			if raceEnabled {
				legs = digestLegs[len(digestLegs)-1:]
			}
			var observed []byte // stdout of a leg with every sink on
			for _, leg := range legs {
				t.Run(legName(leg), func(t *testing.T) {
					got := runCase(t, c, leg, c.files)
					for _, out := range append([]string{"stdout"}, c.files...) {
						key := c.name + " " + out
						sum := sha256.Sum256(got[out])
						if hex.EncodeToString(sum[:]) != want[key] {
							t.Errorf("%s (%d bytes) changed; new digest line:\n%s %x", key, len(got[out]), key, sum)
						}
					}
					observed = got["stdout"]
				})
			}
			if len(c.files) == 0 || raceEnabled || observed == nil {
				return
			}
			t.Run("sinks-off", func(t *testing.T) {
				plain := runCase(t, c, digestLegs[len(digestLegs)-1], nil)["stdout"]
				stripped := withoutSinkReports(observed)
				if bytes.Equal(stripped, observed) {
					t.Fatalf("%v drained no sink report", c.files)
				}
				if !bytes.Equal(stripped, plain) {
					line, got, want := firstDiff(stripped, plain)
					t.Errorf("without its sink reports the observed report differs from the plain one at line %d:\n%q\nplain:\n%q", line, got, want)
				}
			})
		})
	}
}

// legName names a leg's subtest after its flags: "-j 8 -headstart 0" is
// "j8-headstart0".
func legName(leg []string) string {
	return strings.TrimPrefix(strings.Join(leg, ""), "-")
}

// runCase runs case c with the leg's flags and the artifact flags files,
// and returns its stdout and each artifact by name.
func runCase(t *testing.T, c digestCase, leg, files []string) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	args := append(append([]string(nil), c.flags...), leg...)
	for _, f := range files {
		args = append(args, "-"+f, filepath.Join(dir, f))
	}
	args = append(args, c.ids...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d, stderr: %s", args, code, stderr.String())
	}
	got := map[string][]byte{"stdout": stdout.Bytes()}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		got[f] = b
	}
	return got
}

// sinkReport matches the header of a report a sink adds to the text
// output: <id>-trace, <id>-metrics or <id>-critpath.
var sinkReport = regexp.MustCompile(`^== [a-z0-9]+-(trace|metrics|critpath) `)

// withoutSinkReports drops every sink report from a text report stream;
// each runs from its header to the next report's header.
func withoutSinkReports(out []byte) []byte {
	var kept []byte
	skip := false
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("== ")) {
			skip = sinkReport.Match(line)
		}
		if !skip {
			kept = append(kept, line...)
		}
	}
	return kept
}

// firstDiff returns the first line, counted from 1, where a and b differ,
// and that line of each ("" past its end).
func firstDiff(a, b []byte) (line int, la, lb string) {
	as, bs := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; ; i++ {
		if i >= len(as) || i >= len(bs) || !bytes.Equal(as[i], bs[i]) {
			if i < len(as) {
				la = string(as[i])
			}
			if i < len(bs) {
				lb = string(bs[i])
			}
			return i + 1, la, lb
		}
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
