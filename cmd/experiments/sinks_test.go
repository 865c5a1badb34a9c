package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro"
)

// TestEverySinkReachesEveryExperiment runs each simulating experiment with
// every observation sink at a tiny protocol. Each of -trace, -metrics and
// -critpath must drain a report for the experiment, -metrics must write
// the same bytes whichever sinks ride with it, and -trace-stream must
// write the bytes -trace writes. -trace-stream is exempt on faultsweep and
// capsweep: a run killed mid-stream leaves a partial block in the stream,
// while buffered collection drops it. Their streamed runs must still carry
// the buffered runs' names.
func TestEverySinkReachesEveryExperiment(t *testing.T) {
	noSim := map[string]bool{"table1": true, "table2": true}
	killsRuns := map[string]bool{"faultsweep": true, "capsweep": true}
	for _, e := range repro.Experiments() {
		if noSim[e.ID] {
			continue
		}
		id := e.ID
		t.Run(id, func(t *testing.T) {
			dir := t.TempDir()
			path := func(name string) string { return filepath.Join(dir, name) }
			runOK := func(args ...string) string {
				t.Helper()
				args = append([]string{"-quick", "-q", "-reps", "1", "-frames", "2"}, append(args, id)...)
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("%v: exit %d, stderr: %s", args, code, stderr.String())
				}
				return stdout.String()
			}
			read := func(name string) []byte {
				t.Helper()
				b, err := os.ReadFile(path(name))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			drains := func(out string, sinks ...string) {
				t.Helper()
				for _, s := range sinks {
					if !strings.Contains(out, "== "+id+"-"+s+" ") {
						t.Errorf("-%s drained no %s-%s report", s, id, s)
					}
				}
			}

			drains(runOK("-trace", path("buffered.json"), "-metrics", path("buffered.csv")), "trace", "metrics")
			// -critpath cannot join -trace-stream, so it rides with
			// -metrics alone.
			drains(runOK("-metrics", path("critpath.csv"), "-critpath", path("waterfall.csv")), "critpath", "metrics")
			// A streamed trace carries the counter tracks of -metrics, as
			// the buffered trace does.
			runOK("-trace-stream", path("streamed.json"), "-metrics", path("paired.csv"))
			for _, name := range []string{"critpath.csv", "paired.csv"} {
				if !bytes.Equal(read(name), read("buffered.csv")) {
					t.Errorf("-metrics wrote %d bytes to %s, %d beside -trace; want the same bytes",
						len(read(name)), name, len(read("buffered.csv")))
				}
			}
			if killsRuns[id] {
				// Killed runs leave partial blocks in the stream, but every
				// run the buffered trace kept is streamed under its name.
				streamed := processNames(read("streamed.json"))
				for name := range processNames(read("buffered.json")) {
					if !streamed[name] {
						t.Errorf("-trace names run %s; -trace-stream has no such process", name)
					}
				}
				return
			}
			if !bytes.Equal(read("streamed.json"), read("buffered.json")) {
				t.Errorf("-trace-stream wrote %d bytes, -trace %d; want the same bytes",
					len(read("streamed.json")), len(read("buffered.json")))
			}
		})
	}
}

// processNamePattern matches a Chrome process_name metadata event and
// captures the run's name as a JSON string.
var processNamePattern = regexp.MustCompile(`"name":"process_name","args":\{"name":("(?:[^"\\]|\\.)*")\}`)

// processNames returns the set of run names in a Chrome trace.
func processNames(chrome []byte) map[string]bool {
	names := map[string]bool{}
	for _, m := range processNamePattern.FindAllSubmatch(chrome, -1) {
		names[string(m[1])] = true
	}
	return names
}
