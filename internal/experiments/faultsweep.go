package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/stats"
)

// FaultSweep is a robustness extension: it subjects each data-management
// solution to a deterministic fault schedule of increasing intensity and
// measures what survival costs. DYAD runs face link degradation/outages,
// broker crashes, and device stalls, and recover through timeouts, capped
// backoff, and degraded reads (direct staging refetch, then the shared
// Lustre mirror deployed by LustreFallback). Lustre runs face OST/MDS
// outages and link faults, and recover through RPC retries and failover.
// XFS runs face device stalls and outright device failures — with no
// redundancy below it, a failed device kills the run, which the sweep
// counts instead of aborting (the error chain wraps faults.ErrDeviceFailed).
//
// The fault plan is a pure function of (spec, seed), so every cell of this
// table is byte-identical for any worker count.
func FaultSweep(o Options) (*Report, error) {
	o = o.Defaults()
	jac := mustModel("JAC")
	rates := []float64{0, 1, 2, 4}
	pairsMulti, pairsXFS := 8, 4
	if o.Quick {
		pairsMulti, pairsXFS = 4, 2
	}

	type setup struct {
		backend core.Backend
		pairs   int
		single  bool
		spec    faults.Spec
	}
	// Base (rate 1x) fault mix per backend, mean events per run. The mixes
	// target each backend's distinct failure surface; rates scale them.
	setups := []setup{
		{core.DYAD, pairsMulti, false, faults.Spec{DeviceStalls: 1, LinkDegrades: 2, LinkOutages: 1, BrokerCrashes: 1}},
		{core.XFS, pairsXFS, true, faults.Spec{DeviceStalls: 2, DeviceFails: 0.5}},
		// Lustre outages run longer than the client's full retry budget
		// (~1.2s) often enough that the failover path shows up in the table.
		{core.Lustre, pairsMulti, false, faults.Spec{LinkDegrades: 1, LinkOutages: 1, OSTOutages: 2, MDSOutages: 0.5,
			MeanOutage: 1500 * time.Millisecond}},
	}

	// One flat batch over (backend, rate): every run is independent, so the
	// whole sweep fans across the worker pool at once. The fault plan is
	// seed-deterministic, so a cell's observed first repetition's recovery
	// spans line up with its metrics exactly.
	type key struct{ setup, rate int }
	var keys []key
	var cells []Cell
	for si, s := range setups {
		for ri, rate := range rates {
			spec := s.spec.Scale(rate)
			cfg := core.Config{
				Backend: s.backend, Model: jac, Pairs: s.pairs,
				SingleNode: s.single, Faults: &spec,
				LustreFallback: s.backend == core.DYAD,
			}
			keys = append(keys, key{si, ri})
			cells = append(cells, Cell{Cfg: cfg, Label: fmt.Sprintf("faults %s %gx", s.backend, rate)})
		}
	}
	results, err := o.Run(cells, FaultKills...)
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:    "faultsweep",
		Title: "Extension: fault injection and recovery sweep (JAC, rates scale the per-backend fault mix)",
		Columns: []string{"backend", "rate", "makespan", "cons_total", "timeouts",
			"retries", "failovers", "degraded_mb", "recovery_s", "failed"},
	}

	type cell struct {
		ok, failed                                         int
		makespan, cons                                     float64
		timeouts, retries, failovers, degradedMB, recovery float64
	}
	cellOf := map[key]*cell{}
	for i, reps := range results {
		c := &cell{}
		cellOf[keys[i]] = c
		for _, res := range reps {
			if res == nil {
				c.failed++
				continue
			}
			c.ok++
			c.makespan += res.Makespan.Seconds()
			c.cons += res.Consumer.Sum().Seconds()
			c.timeouts += float64(res.Recovery.Timeouts)
			c.retries += float64(res.Recovery.Retries)
			c.failovers += float64(res.Recovery.Failovers)
			c.degradedMB += float64(res.Recovery.DegradedBytes) / (1 << 20)
			c.recovery += res.Recovery.RecoveryTime.Seconds()
		}
	}
	// meanMakespan is the per-cell mean over surviving reps (NaN if none —
	// a cell with no survivors has no defined makespan, and downstream
	// ratios over it must render "n/a", not divide-by-zero garbage).
	meanMakespan := func(c *cell) float64 {
		if c.ok == 0 {
			return math.NaN()
		}
		return c.makespan / float64(c.ok)
	}
	for si, s := range setups {
		for ri, rate := range rates {
			c := cellOf[key{si, ri}]
			row := []string{s.backend.String(), fmt.Sprintf("%gx", rate)}
			if c.ok == 0 {
				row = append(row, "-", "-", "-", "-", "-", "-", "-")
			} else {
				n := float64(c.ok)
				row = append(row,
					stats.FormatSeconds(c.makespan/n),
					stats.FormatSeconds(c.cons/n),
					fmt.Sprintf("%.1f", c.timeouts/n),
					fmt.Sprintf("%.1f", c.retries/n),
					fmt.Sprintf("%.1f", c.failovers/n),
					fmt.Sprintf("%.2f", c.degradedMB/n),
					stats.FormatSeconds(c.recovery/n),
				)
			}
			row = append(row, fmt.Sprintf("%d/%d", c.failed, o.Reps))
			r.Rows = append(r.Rows, row)
		}
	}

	// The headline is always emitted: a backend whose every rep died at
	// some rate reports "n/a" for its inflation instead of vanishing.
	last := len(rates) - 1
	dy0, dy4 := cellOf[key{0, 0}], cellOf[key{0, last}]
	lu0, lu4 := cellOf[key{2, 0}], cellOf[key{2, last}]
	r.Notes = append(r.Notes, fmt.Sprintf(
		"makespan inflation at %gx faults — DYAD: %s, Lustre: %s",
		rates[last],
		stats.FormatRatioPrec(stats.Ratio(meanMakespan(dy4), meanMakespan(dy0)), 2),
		stats.FormatRatioPrec(stats.Ratio(meanMakespan(lu4), meanMakespan(lu0)), 2)))
	xfsFailed := 0
	for ri := range rates {
		xfsFailed += cellOf[key{1, ri}].failed
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("XFS runs killed by device failure: %d of %d (no redundancy below node-local XFS; errors wrap faults.ErrDeviceFailed)", xfsFailed, len(rates)*o.Reps),
		"DYAD survives broker crashes via timeout+backoff, then degraded reads (staging refetch or Lustre mirror); Lustre survives OST/MDS outages via RPC retry and failover",
		"fault plans are pure functions of (spec, seed): this table is byte-identical for any -j",
		"extends the paper: fault injection; not a paper figure",
	)
	return r, nil
}
