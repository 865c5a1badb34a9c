package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
