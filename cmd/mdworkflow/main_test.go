package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as the command itself:
// with MDWORKFLOW_RUN_MAIN=1 the process runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("MDWORKFLOW_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command runs mdworkflow with args and returns (exit code, stdout, stderr).
func command(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MDWORKFLOW_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// An unknown flag (here the removed -pdes-j) is a usage error: exit 2, one
// 'mdworkflow: ...' line on stderr naming the flag, nothing on stdout.
func TestUnknownFlagIsOneLineUsageError(t *testing.T) {
	code, out, errOut := command(t, "-pdes-j", "1")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if out != "" {
		t.Errorf("usage error leaked to stdout: %q", out)
	}
	if !strings.HasPrefix(errOut, "mdworkflow: ") || strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, "-pdes-j") {
		t.Errorf("want one 'mdworkflow: ...' line naming -pdes-j on stderr, got %q", errOut)
	}
}

// -trace writes the first repetition's span trace only, so the file is
// the same at any -reps and -j. Each of the 2 pairs' producer and
// consumer marks each frame once.
func TestTraceIsOneRepetitionsTimeline(t *testing.T) {
	const pairs, frames = 2, 4
	var timelines [2][]byte
	for i := range timelines {
		path := filepath.Join(t.TempDir(), "trace.json")
		code, _, errOut := command(t, "-backend", "DYAD", "-pairs", strconv.Itoa(pairs),
			"-frames", strconv.Itoa(frames), "-reps", "4", "-j", "4", "-trace", path)
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errOut)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		timelines[i] = b
	}
	if !bytes.Equal(timelines[0], timelines[1]) {
		t.Error("two identical invocations wrote different timelines")
	}
	produced := bytes.Count(timelines[0], []byte(`"name":"frame_produced"`))
	consumed := bytes.Count(timelines[0], []byte(`"name":"frame_consumed"`))
	if produced != pairs*frames || consumed != pairs*frames {
		t.Errorf("trace marks %d frames produced and %d consumed, want pairs*frames = %d each", produced, consumed, pairs*frames)
	}
}
