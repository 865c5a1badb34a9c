package main

import (
	"fmt"
	"io"
	"time"

	"repro"
)

// runCalibSubcommand handles the calibrate and search subcommands. Fit
// and search reports go to out (stdout or -o) and are byte-identical for
// any -j; progress goes to stderr and is suppressed by -q. run has
// already checked rest: calibrate takes none, search at least one goal.
func runCalibSubcommand(cmd string, rest []string, co repro.CalibOptions, out, stderr io.Writer, quiet bool) int {
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	switch cmd {
	case "calibrate":
		eff := co.Defaults()
		if !quiet {
			fmt.Fprintf(stderr, "calibrate (reps=%d frames=%d budget=%d quick=%v) ...",
				eff.Reps, eff.Frames, eff.Budget, eff.Quick)
		}
		start := time.Now()
		fit, err := repro.Calibrate(repro.DefaultCalibSpace(), co)
		if err != nil {
			if !quiet {
				fmt.Fprintln(stderr)
			}
			return fatal(err)
		}
		if !quiet {
			fmt.Fprintf(stderr, " done in %.2fs (%d evaluations)\n", time.Since(start).Seconds(), fit.Evals)
		}
		fit.Render(out)
		return 0

	case "search":
		for i, id := range rest {
			if !quiet {
				fmt.Fprintf(stderr, "[%d/%d] search %s ...", i+1, len(rest), id)
			}
			start := time.Now()
			rep, err := repro.RunCalibGoal(id, co)
			if err != nil {
				if !quiet {
					fmt.Fprintln(stderr)
				}
				return fatal(err)
			}
			if !quiet {
				fmt.Fprintf(stderr, " done in %.2fs\n", time.Since(start).Seconds())
			}
			repro.RenderReport(out, rep)
			fmt.Fprintln(out)
		}
		return 0
	}
	fmt.Fprintf(stderr, "experiments: unknown subcommand %q\n", cmd)
	return 2
}
