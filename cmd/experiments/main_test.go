package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the command and returns (exit code, stdout, stderr). The
// tests below pin the output-routing contract: report bytes (text tables,
// CSV, JSON) go to stdout only; progress, memstats, artifact notes, usage,
// and errors go to stderr only — so shell redirection of either stream
// never mixes the two.
func capture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestStdoutCarriesOnlyReports(t *testing.T) {
	code, out, errOut := capture(t, "table1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.HasPrefix(out, "== table1") {
		t.Fatalf("stdout does not start with the report header: %q", out[:min(len(out), 60)])
	}
	for _, frag := range []string{"[1/1]", "done in", "experiment(s) in"} {
		if strings.Contains(out, frag) {
			t.Fatalf("progress fragment %q leaked onto stdout", frag)
		}
		if !strings.Contains(errOut, frag) {
			t.Fatalf("progress fragment %q missing from stderr", frag)
		}
	}
}

func TestQuietSuppressesStderr(t *testing.T) {
	code, out, errOut := capture(t, "-q", "table1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if errOut != "" {
		t.Fatalf("-q left stderr output: %q", errOut)
	}
	if !strings.Contains(out, "== table1") {
		t.Fatal("report missing from stdout")
	}
}

// TestArtifactFlagsKeepStreamsSeparate drives every output-shaping flag at
// once (-o, -q off, -memstats, -trace, -metrics, -metrics-prom) on a real
// experiment and checks stdout stays empty (routed to -o), the report file
// holds the tables, and every progress/artifact note lands on stderr.
func TestArtifactFlagsKeepStreamsSeparate(t *testing.T) {
	dir := t.TempDir()
	oPath := filepath.Join(dir, "report.txt")
	tPath := filepath.Join(dir, "trace.json")
	mPath := filepath.Join(dir, "metrics.csv")
	pPath := filepath.Join(dir, "metrics.prom")
	code, out, errOut := capture(t, "-quick", "-reps", "1", "-frames", "4",
		"-o", oPath, "-memstats", "-trace", tPath, "-metrics", mPath, "-metrics-prom", pPath, "fig5")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if out != "" {
		t.Fatalf("stdout not empty with -o: %q", out)
	}
	report, err := os.ReadFile(oPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== fig5 ", "== fig5-trace ", "== fig5-metrics "} {
		if !strings.Contains(string(report), want) {
			t.Errorf("report file missing %q", want)
		}
	}
	for _, want := range []string{"[memstats] fig5:", "traced run(s)", "sampled run(s)", "wrote metrics snapshot"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut)
		}
	}
	for _, path := range []string{tPath, mPath, pPath} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("artifact %s missing or empty (err %v)", path, err)
		}
	}
}

func TestListGoesToStdout(t *testing.T) {
	code, out, errOut := capture(t, "-list")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "fig5") || !strings.Contains(out, "faultsweep") {
		t.Fatalf("listing incomplete: %q", out)
	}
}

func TestErrorsGoToStderr(t *testing.T) {
	code, out, errOut := capture(t, "no-such-experiment")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if out != "" {
		t.Fatalf("error run wrote to stdout: %q", out)
	}
	if !strings.Contains(errOut, "experiments:") {
		t.Fatalf("error missing from stderr: %q", errOut)
	}

	code, out, errOut = capture(t)
	if code != 2 || out != "" || !strings.Contains(errOut, "no experiment ids") {
		t.Fatalf("no-args: exit %d stdout %q stderr %q", code, out, errOut)
	}

	code, out, errOut = capture(t, "-definitely-not-a-flag")
	if code != 2 || out != "" || !strings.Contains(errOut, "flag") {
		t.Fatalf("bad flag: exit %d stdout %q stderr %q", code, out, errOut)
	}
}

// A run refused for its arguments leaves no -o file: ids, subcommand
// arguments and sink-flag conflicts are all checked before the file is
// created, and an artifact path that cannot be created refuses the run
// before any simulation and takes the files created so far with it.
func TestRefusedRunCreatesNoOutput(t *testing.T) {
	cases := []struct {
		args []string
		code int
	}{
		{[]string{"search"}, 2},
		{[]string{"calibrate", "extra"}, 2},
		{[]string{"nosuchfig"}, 1},
		{[]string{"explain", "nosuch"}, 1},
		{[]string{"search", "nosuchgoal"}, 1},
		{[]string{"-trace", "$DIR/a", "-trace-stream", "$DIR/b", "fig5"}, 1},
		{[]string{"-quick", "-q", "-trace", "$DIR/nodir/x.json", "fig5"}, 1},
		{[]string{"-quick", "-q", "-trace-stream", "$DIR/nodir/x.json", "fig5"}, 1},
		{[]string{"-quick", "-q", "-metrics", "$DIR/nodir/x.csv", "fig5"}, 1},
	}
	for _, c := range cases {
		dir := t.TempDir()
		args := []string{"-o", filepath.Join(dir, "out.txt")}
		for _, a := range c.args {
			args = append(args, strings.ReplaceAll(a, "$DIR", dir))
		}
		code, out, errOut := capture(t, args...)
		if code != c.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, code, c.code, errOut)
		}
		if out != "" || !strings.HasPrefix(errOut, "experiments: ") {
			t.Errorf("%v: stdout %q stderr %q, want the error on stderr only", c.args, out, errOut)
		}
		if strings.Contains(errOut, "experiments: experiments:") {
			t.Errorf("%v: doubled prefix in %q", c.args, errOut)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			t.Errorf("%v: left %s behind", c.args, e.Name())
		}
	}
}

// A refused run removes only the files it created: an -o file that was
// there before stays.
func TestRefusedRunKeepsExistingOutput(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.txt")
	if err := os.WriteFile(out, []byte("earlier report\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := capture(t, "-o", out, "-quick", "-q", "-metrics", filepath.Join(dir, "nodir", "m.csv"), "fig5")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errOut)
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("the existing -o file is gone: %v", err)
	}
}

// Nonsense counts are usage errors caught before any simulation: exit 2,
// one line on stderr, nothing on stdout. An explicit -reps 0 is rejected
// (0 only means "paper default" when the flag is omitted). Unknown flags —
// such as the removed -pdes-j — fail the same way, without the usage dump.
func TestFlagValidationUpFront(t *testing.T) {
	cases := [][]string{
		{"-reps", "0", "table1"},
		{"-reps", "-3", "table1"},
		{"-frames", "0", "fig5"},
		{"-frames", "-1", "fig5"},
		{"-j", "-2", "table1"},
		{"-pdes-j", "-1", "table1"}, // unknown flag
		{"-headstart", "-5ms", "fig5"},
		{"-budget", "-1", "calibrate"},
		{"-metrics-interval", "-1s", "-metrics", "x.csv", "fig5"},
		{"-metrics-interval", "100ms", "fig5"}, // no sampling sink to pace
	}
	for _, args := range cases {
		code, out, errOut := capture(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out != "" {
			t.Errorf("%v: usage error leaked to stdout: %q", args, out)
		}
		if !strings.HasPrefix(errOut, "experiments: ") || strings.Count(errOut, "\n") != 1 {
			t.Errorf("%v: want one 'experiments: ...' line on stderr, got %q", args, errOut)
		}
	}
	// Omitted -reps/-frames still mean the paper defaults.
	if code, _, errOut := capture(t, "-q", "table1"); code != 0 {
		t.Fatalf("defaults rejected: exit %d, stderr %s", code, errOut)
	}
}

func TestCalibrateSmoke(t *testing.T) {
	code, out, errOut := capture(t, "-q", "-quick", "-reps", "1", "-frames", "8", "-budget", "2", "calibrate")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if errOut != "" {
		t.Fatalf("-q left stderr output: %q", errOut)
	}
	for _, want := range []string{"== calibrate", "fitted parameters:", "headstart", "fig5.cons_total.xfs_over_dyad"} {
		if !strings.Contains(out, want) {
			t.Errorf("fit report missing %q:\n%s", want, out)
		}
	}
	// Subcommand misuse is a usage error.
	if code, _, _ := capture(t, "calibrate", "extra"); code != 2 {
		t.Errorf("calibrate with extra args: exit %d, want 2", code)
	}
	if code, _, _ := capture(t, "-json", "calibrate"); code != 2 {
		t.Errorf("-json calibrate: exit %d, want 2", code)
	}
}

func TestSearchSmoke(t *testing.T) {
	code, out, errOut := capture(t, "-q", "-quick", "-reps", "1", "-frames", "8", "-budget", "2", "search", "xfs-beats-dyad")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if errOut != "" {
		t.Fatalf("-q left stderr output: %q", errOut)
	}
	if !strings.Contains(out, "== search:xfs-beats-dyad") {
		t.Fatalf("search report missing header:\n%s", out)
	}
	// No goal: usage error listing the goals on stderr.
	code, out, errOut = capture(t, "search")
	if code != 2 || out != "" {
		t.Fatalf("bare search: exit %d stdout %q", code, out)
	}
	for _, want := range []string{"xfs-beats-dyad", "fault-breaks-10x"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("goal listing missing %q: %s", want, errOut)
		}
	}
	// Unknown goal: runtime error, exit 1, stderr only.
	code, out, errOut = capture(t, "search", "no-such-goal")
	if code != 1 || out != "" || !strings.Contains(errOut, "unknown search goal") {
		t.Fatalf("unknown goal: exit %d stdout %q stderr %q", code, out, errOut)
	}
}

func TestExplainSmoke(t *testing.T) {
	code, out, errOut := capture(t, "-q", "-quick", "-reps", "1", "-frames", "8", "explain", "fig5")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if errOut != "" {
		t.Fatalf("-q left stderr output: %q", errOut)
	}
	for _, want := range []string{"== explain:fig5", "makespan:", "attribution:", "top edge:", "gap_share"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain report missing %q:\n%s", want, out)
		}
	}
	// Subcommand misuse is a usage error: exit 2, one line, stdout clean.
	for _, args := range [][]string{
		{"explain"},
		{"-json", "explain", "fig5"},
		{"-csv", "explain", "fig5"},
	} {
		code, out, errOut := capture(t, args...)
		if code != 2 || out != "" {
			t.Errorf("%v: exit %d stdout %q, want usage error", args, code, out)
		}
		if !strings.HasPrefix(errOut, "experiments: ") || strings.Count(errOut, "\n") != 1 {
			t.Errorf("%v: want one 'experiments: ...' line on stderr, got %q", args, errOut)
		}
	}
	// The bare-explain usage line lists the available targets.
	_, _, errOut = capture(t, "explain")
	for _, want := range []string{"fig5", "fig6"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("target listing missing %q: %s", want, errOut)
		}
	}
	// Unknown target: runtime error, exit 1, stderr only.
	code, out, errOut = capture(t, "explain", "no-such-target")
	if code != 1 || out != "" || !strings.Contains(errOut, "unknown explain target") {
		t.Fatalf("unknown target: exit %d stdout %q stderr %q", code, out, errOut)
	}
}

// TestCritpathStreamsAndArtifacts runs a real experiment with -critpath:
// the blame report joins the other reports on stdout (or -o), the
// waterfall CSV lands in the named file, and the artifact note goes to
// stderr only.
func TestCritpathStreamsAndArtifacts(t *testing.T) {
	dir := t.TempDir()
	wPath := filepath.Join(dir, "waterfall.csv")
	code, out, errOut := capture(t, "-quick", "-reps", "1", "-frames", "4",
		"-critpath", wPath, "fig5")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "== fig5-critpath ") {
		t.Fatalf("stdout missing blame report:\n%s", out)
	}
	if strings.Contains(out, "frame lineage set(s)") {
		t.Fatal("artifact note leaked onto stdout")
	}
	if !strings.Contains(errOut, "frame lineage set(s)") {
		t.Fatalf("stderr missing waterfall note:\n%s", errOut)
	}
	wf, err := os.ReadFile(wPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(wf), "run,frame,hop,proc,start_us,dur_us,bytes\n") {
		t.Fatalf("waterfall header wrong: %q", string(wf[:min(len(wf), 60)]))
	}
	// Mutually exclusive with -trace-stream: flow-event merging needs
	// buffered spans.
	code, out, errOut = capture(t, "-critpath", wPath, "-trace-stream", filepath.Join(dir, "t.json"), "fig5")
	if code != 1 || out != "" || !strings.Contains(errOut, "mutually exclusive") {
		t.Fatalf("-critpath -trace-stream: exit %d stdout %q stderr %q", code, out, errOut)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
