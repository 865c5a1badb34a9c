// Command mdworkflow runs one MD-inspired producer/consumer workflow
// configuration (§IV-C of the paper) on the simulated cluster and prints
// the production/consumption time decomposition.
//
// Examples:
//
//	mdworkflow -backend DYAD -model JAC -pairs 4 -single-node
//	mdworkflow -backend Lustre -model STMV -pairs 16 -stride 10 -reps 5
//	mdworkflow -backend DYAD -model JAC -pairs 8 -profiles
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/caliper"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/thicket"
)

func main() {
	var (
		backendName = flag.String("backend", "DYAD", "data management solution: DYAD, XFS, or Lustre")
		modelName   = flag.String("model", "JAC", "molecular model: JAC, ApoA1, 'F1 ATPase', or STMV")
		atoms       = flag.Int("atoms", 0, "custom model: atom count (overrides -model)")
		stepsPerSec = flag.Float64("steps-per-sec", 0, "custom model: MD steps per second")
		pairs       = flag.Int("pairs", 1, "number of producer-consumer pairs")
		frames      = flag.Int("frames", 128, "frames per pair")
		stride      = flag.Int("stride", 0, "output stride in MD steps (0 = model default)")
		singleNode  = flag.Bool("single-node", false, "collocate producers and consumers on one node")
		reps        = flag.Int("reps", 1, "repetitions (distinct seeds)")
		workers     = flag.Int("j", 0, "parallel workers for repetitions (0 = one per core); results are identical for any -j")
		seed        = flag.Uint64("seed", 1, "base RNG seed")
		jitter      = flag.Float64("jitter", 0.004, "relative std of per-frame MD compute time")
		noise       = flag.Bool("lustre-noise", true, "background interference on Lustre OSTs")
		real        = flag.Bool("real-frames", false, "encode/verify genuine frame payloads")
		profiles    = flag.Bool("profiles", false, "print the ensembled Thicket call trees")
		saveDir     = flag.String("save-profiles", "", "write per-process Caliper profiles (JSON) into this directory for cmd/thicketql")
		tracePath   = flag.String("trace", "", "write the first repetition's span trace (Chrome trace-event JSON) to this file")
	)
	// Parse errors are one line on stderr (exit 2); -h still prints usage.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			flag.CommandLine.SetOutput(os.Stderr)
			flag.Usage()
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "mdworkflow:", err)
		os.Exit(2)
	}

	backend, err := repro.ParseBackend(*backendName)
	if err != nil {
		fatal(err)
	}
	var model repro.Model
	if *atoms > 0 || *stepsPerSec > 0 {
		model, err = repro.CustomModel(fmt.Sprintf("custom-%d", *atoms), *atoms, *stepsPerSec, *stride)
	} else {
		model, err = repro.ModelByName(*modelName)
	}
	if err != nil {
		fatal(err)
	}
	cfg := repro.Config{
		Backend:       backend,
		Model:         model,
		Pairs:         *pairs,
		Frames:        *frames,
		Stride:        *stride,
		SingleNode:    *singleNode,
		Seed:          *seed,
		ComputeJitter: *jitter,
		LustreNoise:   *noise,
		RealFrames:    *real,
		KeepProfiles:  *profiles || *saveDir != "",
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	if *reps < 1 {
		fatal(fmt.Errorf("-reps must be >= 1 (got %d)", *reps))
	}
	var traceFile *os.File
	if *tracePath != "" {
		if traceFile, err = os.Create(*tracePath); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("config: %s\n", cfg.Label())
	fmt.Printf("frame size: %d bytes, frequency: %v, nodes: %d\n",
		model.FrameBytes(), cfg.Frequency(), cfg.ComputeNodes())

	// The trace is one repetition's, as the experiments trace only their
	// first, so it is the same at any -reps and -j.
	cfgs := core.RepeatConfigs(cfg, *reps)
	cfgs[0].RecordSpans = traceFile != nil
	start := time.Now()
	results, err := repro.RunMany(cfgs, *workers)
	if err != nil {
		fatal(err)
	}
	if traceFile != nil {
		err := repro.WriteChromeTrace(traceFile, []repro.TraceRun{{Label: cfgs[0].Label(), Spans: results[0].Spans}})
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("ran %d repetition(s) in %.2fs\n", *reps, time.Since(start).Seconds())
	agg := repro.Aggregated(results)
	fmt.Printf("\n%-24s %-14s %-14s\n", "", "mean", "std")
	printLine := func(name string, s stats.Summary) {
		fmt.Printf("%-24s %-14s %-14s\n", name, stats.FormatSeconds(s.Mean), stats.FormatSeconds(s.Std))
	}
	printLine("producer data movement", agg.ProdMovement)
	printLine("producer idle", agg.ProdIdle)
	printLine("consumer data movement", agg.ConsMovement)
	printLine("consumer idle", agg.ConsIdle)
	printLine("makespan", agg.Makespan)
	fmt.Printf("\nproduction total: %s   consumption total: %s\n",
		stats.FormatSeconds(agg.ProdTotalMean()), stats.FormatSeconds(agg.ConsTotalMean()))

	if *profiles {
		fmt.Println("\n--- producer call tree (ensembled) ---")
		thicket.FromProfiles(results[len(results)-1].ProducerProfiles).Render(os.Stdout)
		fmt.Println("\n--- consumer call tree (ensembled) ---")
		thicket.FromProfiles(results[len(results)-1].ConsumerProfiles).Render(os.Stdout)
	}

	if *saveDir != "" {
		if err := saveProfiles(*saveDir, results); err != nil {
			fatal(err)
		}
		fmt.Printf("\nprofiles written to %s (analyze with cmd/thicketql)\n", *saveDir)
	}
}

// saveProfiles writes every repetition's per-process profiles as JSON
// files named rep<k>-<proc>.json.
func saveProfiles(dir string, results []*repro.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for rep, res := range results {
		all := append(append([]*caliper.Profile(nil), res.ProducerProfiles...), res.ConsumerProfiles...)
		for _, prof := range all {
			f, err := os.Create(fmt.Sprintf("%s/rep%d-%s.json", dir, rep, prof.Proc))
			if err != nil {
				return err
			}
			err = prof.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdworkflow:", err)
	os.Exit(1)
}
