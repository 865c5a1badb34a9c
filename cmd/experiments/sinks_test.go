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
// every observation sink at a tiny protocol: -trace, -metrics and
// -critpath together, and -metrics alone. Each sink must drain a report
// for the experiment, and -metrics must write the same bytes whichever
// sinks ride with it. The streamed -trace file must equal a keeping
// collector's runs written by WriteChromeTrace, flows and counter tracks
// included. faultsweep and capsweep may kill a traced run mid-stream: the
// stream keeps the killed run's partial block, which a keeping collector
// drops, so there every run the keeping collector has must be streamed
// under its name.
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

			drains(runOK("-trace", path("streamed.json"), "-metrics", path("all.csv"), "-critpath", path("waterfall.csv")),
				"trace", "metrics", "critpath")
			drains(runOK("-metrics", path("alone.csv")), "metrics")
			if !bytes.Equal(read("all.csv"), read("alone.csv")) {
				t.Errorf("-metrics wrote %d bytes beside -trace and -critpath, %d alone; want the same bytes",
					len(read("all.csv")), len(read("alone.csv")))
			}

			// The keeping reference: the same sweep through the library,
			// its runs written after the sweep.
			tc, mc := repro.NewTraceCollector(), repro.NewMetricsCollector()
			opts := repro.ExperimentOptions{Quick: true, Reps: 1, Frames: 2,
				Trace: tc, Metrics: mc, CritPath: repro.NewCritPathCollector()}
			if _, err := repro.RunExperiment(id, opts); err != nil {
				t.Fatal(err)
			}
			var buffered bytes.Buffer
			if err := repro.WriteChromeTrace(&buffered, tc.Runs); err != nil {
				t.Fatal(err)
			}
			streamed := read("streamed.json")
			if killsRuns[id] {
				names := processNames(streamed)
				for name := range processNames(buffered.Bytes()) {
					if !names[name] {
						t.Errorf("the keeping collector names run %s; -trace has no such process", name)
					}
				}
				return
			}
			if !bytes.Equal(streamed, buffered.Bytes()) {
				t.Errorf("-trace streamed %d bytes, the keeping collector wrote %d; want the same bytes",
					len(streamed), buffered.Len())
			}
			if !bytes.Contains(streamed, []byte(`"cat":"provenance"`)) || !bytes.Contains(streamed, []byte(`"ph":"C"`)) {
				t.Error("-trace beside -critpath and -metrics wrote no flow or no counter event")
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
