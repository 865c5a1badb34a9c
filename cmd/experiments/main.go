// Command experiments regenerates the paper's tables and figures.
//
// Examples:
//
// Flags come before experiment ids (standard library flag parsing stops at
// the first positional argument):
//
//	experiments -list
//	experiments table1 table2
//	experiments -reps 10 -frames 128 fig5
//	experiments -quick all
//	experiments -quick -j 8 all
//	experiments -json fig9
//	experiments -metrics util.csv -metrics-prom util.prom fig5
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command. Reports, JSON, and CSV go to stdout; progress,
// memstats, artifact notes, and errors go to stderr — the two streams never
// interleave, so `experiments ... > report.txt` always captures exactly the
// report bytes.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // parse errors are reported below, in one line
	var (
		list       = fs.Bool("list", false, "list available experiment ids and exit")
		reps       = fs.Int("reps", 0, "repetitions per configuration (0 = paper default)")
		frames     = fs.Int("frames", 0, "frames per pair (0 = paper default of 128)")
		seed       = fs.Uint64("seed", 0, "base RNG seed (0 = default)")
		quick      = fs.Bool("quick", false, "reduced sweep for smoke runs")
		workers    = fs.Int("j", 0, "parallel simulation workers (0 = one per core); results are identical for any -j")
		headstart  = fs.Duration("headstart", 0, "producer job head start over each consumer (paper launch protocol; 0 = none, byte-identical to builds without the knob; 'calibrate' fits it)")
		budget     = fs.Int("budget", 0, "calibrate/search evaluation budget (0 = default)")
		asJSON     = fs.Bool("json", false, "emit reports as JSON instead of text tables")
		asCSV      = fs.Bool("csv", false, "emit report tables as CSV (for plotting)")
		outPath    = fs.String("o", "", "write output to file instead of stdout")
		quiet      = fs.Bool("q", false, "suppress per-experiment progress on stderr")
		memstats   = fs.Bool("memstats", false, "report per-experiment host allocation deltas on stderr")
		traceOut   = fs.String("trace", "", "record virtual-time span traces: write a Chrome trace-event JSON file here and emit per-experiment time-breakdown reports")
		traceStrm  = fs.String("trace-stream", "", "like -trace but bounded-memory: stream spans into the Chrome trace file as they are emitted (same bytes, plus the partial block of any run a fault or capacity kill cut short; no breakdown reports)")
		metricsOut = fs.String("metrics", "", "sample virtual-time resource metrics: write a time-series CSV file here and emit per-experiment utilization dashboards")
		promOut    = fs.String("metrics-prom", "", "with metrics sampling, also write an end-of-run Prometheus text-format snapshot here")
		metricsInt = fs.Duration("metrics-interval", 0, "virtual-time sampling period for -metrics/-metrics-prom (0 = 250ms); needs one of them")
		critOut    = fs.String("critpath", "", "record causal dependency graphs: write a frame-provenance waterfall CSV file here and emit per-experiment critical-path blame reports")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.Usage()
			return 0
		}
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}

	// Up-front flag validation: a nonsensical count, or a flag that would
	// be ignored, is a usage error (exit 2, one line, stderr only) before
	// any simulation starts. `-reps 0` must be distinguished from an
	// omitted -reps (0 = paper default), so the flags given are found via
	// Visit.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "experiments: "+format+"\n", args...)
		return 2
	}
	switch {
	case *reps < 0 || set["reps"] && *reps == 0:
		return usage("-reps must be a positive integer (got %d); omit the flag for the paper default", *reps)
	case *frames < 0 || set["frames"] && *frames == 0:
		return usage("-frames must be a positive integer (got %d); omit the flag for the paper default", *frames)
	case *workers < 0:
		return usage("-j must be >= 0 (got %d); 0 means one worker per core", *workers)
	case *headstart < 0:
		return usage("-headstart must be >= 0 (got %v)", *headstart)
	case *budget < 0:
		return usage("-budget must be >= 0 (got %d); 0 means the default budget", *budget)
	case *metricsInt < 0:
		return usage("-metrics-interval must be >= 0 (got %v); 0 means 250ms", *metricsInt)
	case set["metrics-interval"] && *metricsOut == "" && *promOut == "":
		return usage("-metrics-interval needs -metrics or -metrics-prom")
	}

	if *list {
		for _, e := range repro.Experiments() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	ids := fs.Args()
	if len(ids) == 0 {
		fmt.Fprintln(stderr, "experiments: no experiment ids given (try -list, or 'all')")
		return 2
	}

	// calibrate/search/explain are subcommands, not experiments: they never
	// join the append-only experiment list, so `all` output stays a stable
	// prefix across builds. Every argument is checked here, before -o
	// creates its file, so a usage error leaves no empty report behind.
	switch ids[0] {
	case "explain", "calibrate", "search":
		switch {
		case *asJSON || *asCSV:
			return usage("%s emits a text report only; -json/-csv are not supported", ids[0])
		case ids[0] == "explain" && len(ids) < 2:
			return usage("explain needs a target (have %s)", explainTargetIDs())
		case ids[0] == "calibrate" && len(ids) > 1:
			return usage("calibrate takes no further arguments (got %v)", ids[1:])
		case ids[0] == "search" && len(ids) < 2:
			fmt.Fprintln(stderr, "experiments: search needs a goal id:")
			for _, g := range repro.CalibGoals() {
				fmt.Fprintf(stderr, "  %-18s %s\n", g.ID, g.Title)
			}
			return 2
		}
		for _, arg := range ids[1:] {
			var err error
			switch ids[0] {
			case "explain":
				_, err = repro.ExplainWorkloadByID(arg)
			case "search":
				_, err = repro.CalibGoalByID(arg)
			}
			if err != nil {
				return fatal(err)
			}
		}
	default:
		for _, id := range ids {
			if id == "all" {
				ids = ids[:0]
				for _, e := range repro.Experiments() {
					ids = append(ids, e.ID)
				}
				break
			}
		}
		for _, id := range ids {
			if _, err := repro.ExperimentByID(id); err != nil {
				return fatal(err)
			}
		}
		if *traceOut != "" && *traceStrm != "" {
			return fatal(errors.New("-trace and -trace-stream are mutually exclusive"))
		}
		if *critOut != "" && *traceStrm != "" {
			return fatal(errors.New("-critpath and -trace-stream are mutually exclusive (flow-event merging needs buffered spans)"))
		}
	}

	// Every output file is created before any simulation, so a path that
	// cannot be created refuses the run up front; an invocation that fails
	// removes the files it created.
	var files outputs
	defer func() { files.finish(code != 0) }()
	out := stdout
	if *outPath != "" {
		f, err := files.create(*outPath)
		if err != nil {
			return fatal(err)
		}
		out = f
	}

	opts := repro.ExperimentOptions{
		Reps: *reps, Frames: *frames, Seed: *seed, Quick: *quick,
		Workers: *workers, ConsumerHeadStart: *headstart,
	}
	switch ids[0] {
	case "explain":
		for _, target := range ids[1:] {
			rep, err := repro.ExplainBackends(target, opts)
			if err != nil {
				return fatal(err)
			}
			repro.RenderReport(out, rep)
			fmt.Fprintln(out)
		}
		return 0
	case "calibrate", "search":
		co := repro.CalibOptions{
			Reps: *reps, Frames: *frames, Seed: *seed, Quick: *quick,
			Workers: *workers, Budget: *budget,
		}
		return runCalibSubcommand(ids[0], ids[1:], co, out, stderr, *quiet)
	}

	// The artifact files, created before the first experiment runs.
	var traceFile, traceStrmFile, metricsFile, promFile, critFile *os.File
	for _, a := range []struct {
		path string
		f    **os.File
	}{
		{*traceOut, &traceFile}, {*traceStrm, &traceStrmFile}, {*metricsOut, &metricsFile},
		{*promOut, &promFile}, {*critOut, &critFile},
	} {
		if a.path == "" {
			continue
		}
		f, err := files.create(a.path)
		if err != nil {
			return fatal(err)
		}
		*a.f = f
	}
	var collector *repro.TraceCollector
	if *traceOut != "" {
		collector = repro.NewTraceCollector()
		opts.Trace = collector
	}
	if traceStrmFile != nil {
		opts.TraceStream = repro.NewChromeTraceStream(traceStrmFile)
	}
	var mcollector *repro.MetricsCollector
	if *metricsOut != "" || *promOut != "" {
		mcollector = repro.NewMetricsCollector()
		mcollector.Interval = *metricsInt
		opts.Metrics = mcollector
	}
	var ccollector *repro.CritPathCollector
	if *critOut != "" {
		ccollector = repro.NewCritPathCollector()
		opts.CritPath = ccollector
	}
	effWorkers := *workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	var reports []*repro.ExperimentReport
	for i, id := range ids {
		if !*quiet {
			fmt.Fprintf(stderr, "[%d/%d] %s (workers=%d) ...", i+1, len(ids), id, effWorkers)
		}
		expStart := time.Now()
		var before runtime.MemStats
		if *memstats {
			runtime.ReadMemStats(&before)
		}
		// Run labels repeat across experiments (fig6/fig7 sweep overlapping
		// ensembles); the scope keeps exported series distinguishable.
		mcollector.SetScope(id)
		rep, err := repro.RunExperiment(id, opts)
		if err != nil {
			if !*quiet {
				fmt.Fprintln(stderr)
			}
			return fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(stderr, " done in %.2fs\n", time.Since(expStart).Seconds())
		}
		if *memstats {
			reportMemStats(stderr, id, &before)
		}
		emit := []*repro.ExperimentReport{rep}
		// With -trace, the experiment's span-derived time breakdown rides
		// along as a second report; with -metrics, the sampled utilization
		// dashboard follows. Without either flag, output bytes are unchanged.
		if breakdown := collector.Drain(id); breakdown != nil {
			emit = append(emit, breakdown)
		}
		if dash := mcollector.Drain(id); dash != nil {
			emit = append(emit, dash)
		}
		if blame := ccollector.Drain(id); blame != nil {
			emit = append(emit, blame)
		}
		for _, rep := range emit {
			switch {
			case *asJSON:
				reports = append(reports, rep)
			case *asCSV:
				fmt.Fprintf(out, "# %s — %s\n", rep.ID, rep.Title)
				if err := rep.WriteCSV(out); err != nil {
					return fatal(err)
				}
				fmt.Fprintln(out)
			default:
				repro.RenderReport(out, rep)
				fmt.Fprintln(out)
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return fatal(err)
		}
	}
	if collector != nil {
		if err := writeFile(traceFile, func(f io.Writer) error {
			return repro.WriteChromeTrace(f, collector.Runs)
		}); err != nil {
			return fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(stderr, "wrote %d traced run(s) to %s\n", len(collector.Runs), *traceOut)
		}
	}
	if metricsFile != nil {
		if err := writeFile(metricsFile, func(f io.Writer) error {
			return repro.WriteMetricsCSV(f, mcollector.Runs)
		}); err != nil {
			return fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(stderr, "wrote %d sampled run(s) to %s\n", len(mcollector.Runs), *metricsOut)
		}
	}
	if traceStrmFile != nil {
		if err := writeFile(traceStrmFile, func(io.Writer) error {
			return opts.TraceStream.Close()
		}); err != nil {
			return fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(stderr, "streamed traces to %s\n", *traceStrm)
		}
	}
	if ccollector != nil {
		if err := writeFile(critFile, func(f io.Writer) error {
			return ccollector.WriteWaterfall(f)
		}); err != nil {
			return fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(stderr, "wrote %d frame lineage set(s) to %s\n", len(ccollector.Lineages), *critOut)
		}
	}
	if promFile != nil {
		if err := writeFile(promFile, func(f io.Writer) error {
			return repro.WriteMetricsProm(f, mcollector.Runs)
		}); err != nil {
			return fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(stderr, "wrote metrics snapshot to %s\n", *promOut)
		}
	}
	if !*quiet {
		fmt.Fprintf(stderr, "%d experiment(s) in %.2fs\n", len(ids), time.Since(start).Seconds())
	}
	return 0
}

// explainTargetIDs renders the explain subcommand's available target ids
// for usage messages.
func explainTargetIDs() string {
	var ids []string
	for _, t := range repro.ExplainWorkloads() {
		ids = append(ids, t.ID)
	}
	return strings.Join(ids, ", ")
}

// writeFile streams write into an output file and closes it, surfacing
// the first error (including Close, which matters for buffered
// filesystems).
func writeFile(f *os.File, write func(io.Writer) error) error {
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}

// outputs tracks the files an invocation opens for writing.
type outputs struct {
	files   []*os.File
	created []string // paths that did not exist before the invocation
}

// create opens path for writing, truncating it, and remembers whether
// this invocation created it.
func (o *outputs) create(path string) (*os.File, error) {
	_, statErr := os.Lstat(path)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	o.files = append(o.files, f)
	if errors.Is(statErr, fs.ErrNotExist) {
		o.created = append(o.created, path)
	}
	return f, nil
}

// finish closes every file still open and, when the invocation failed,
// removes the files it created.
func (o *outputs) finish(failed bool) {
	for _, f := range o.files {
		f.Close() // already closed after a successful write; the error is moot
	}
	if failed {
		for _, path := range o.created {
			os.Remove(path)
		}
	}
}

// reportMemStats prints the host-side allocation delta one experiment
// caused, on stderr so machine-readable stdout formats stay clean. The
// deltas are how the allocation-budget claims in DESIGN.md §3c are checked
// end to end (sweeps with RealFrames=false should show near-zero bytes per
// simulated frame).
func reportMemStats(stderr io.Writer, id string, before *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	fmt.Fprintf(stderr,
		"[memstats] %s: alloc=%.1fMB mallocs=%d gcs=%d heap_inuse=%.1fMB heap_sys=%.1fMB\n",
		id,
		float64(after.TotalAlloc-before.TotalAlloc)/(1<<20),
		after.Mallocs-before.Mallocs,
		after.NumGC-before.NumGC,
		float64(after.HeapInuse)/(1<<20),
		float64(after.HeapSys)/(1<<20))
}
