// Command thicketql loads Caliper profiles (JSON, as written by
// caliper.Profile.WriteJSON), ensembles them, renders the statistical call
// tree, and optionally runs call-path queries against it.
//
// Examples:
//
//	thicketql profiles/*.json
//	thicketql -q '//dyad_consume/dyad_fetch' profiles/*.json
//	thicketql -q '//read_single_buf[mean>1ms]' profiles/*.json
//	thicketql -demo -q '//dyad_consume/*'
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/caliper"
	"repro/internal/stats"
	"repro/internal/thicket"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run writes the ensemble and any query matches to stdout and errors to
// stderr, and returns the exit code: 2 for a usage error, 1 for a failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thicketql", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // parse errors are reported below, in one line
	var (
		query = fs.String("q", "", "call-path query to run (e.g. //dyad_fetch[mean>1ms])")
		demo  = fs.Bool("demo", false, "generate profiles from a small built-in DYAD run instead of reading files")
		role  = fs.String("role", "consumer", "with -demo: which role's profiles to analyze (producer or consumer)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.Usage()
			return 0
		}
		fmt.Fprintln(stderr, "thicketql:", err)
		return 2
	}
	if *role != "producer" && *role != "consumer" {
		fmt.Fprintf(stderr, "thicketql: -role must be producer or consumer (got %q)\n", *role)
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "thicketql:", err)
		return 1
	}

	var profiles []*caliper.Profile
	if *demo {
		var err error
		if profiles, err = demoProfiles(*role); err != nil {
			return fatal(err)
		}
	} else {
		if fs.NArg() == 0 {
			fmt.Fprintln(stderr, "thicketql: no profile files given (or use -demo)")
			return 2
		}
		for _, path := range fs.Args() {
			f, err := os.Open(path)
			if err != nil {
				return fatal(err)
			}
			p, err := caliper.ReadJSON(f)
			f.Close()
			if err != nil {
				return fatal(fmt.Errorf("%s: %w", path, err))
			}
			profiles = append(profiles, p)
		}
	}

	ens := thicket.FromProfiles(profiles)
	fmt.Fprintf(stdout, "ensemble of %d profiles\n\n", ens.Members())
	ens.Render(stdout)

	if *query != "" {
		nodes, err := ens.Query(*query)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "\nquery %s -> %d match(es)\n", *query, len(nodes))
		for _, n := range nodes {
			fmt.Fprintf(stdout, "  %-28s mean=%-12s std=%-12s visits=%.0f\n",
				n.Name, stats.FormatSeconds(n.Total.Mean), stats.FormatSeconds(n.Total.Std), n.Visits.Mean)
		}
	}
	return 0
}

// demoProfiles runs a small DYAD workflow and returns role's profiles.
func demoProfiles(role string) ([]*caliper.Profile, error) {
	jac, err := repro.ModelByName("JAC")
	if err != nil {
		return nil, err
	}
	res, err := repro.Run(repro.Config{
		Backend: repro.DYAD, Model: jac, Pairs: 4, Frames: 16,
		Seed: 1, KeepProfiles: true, // a fixed seed: the demo prints the same every time
	})
	if err != nil {
		return nil, err
	}
	if role == "producer" {
		return res.ProducerProfiles, nil
	}
	return res.ConsumerProfiles, nil
}
