package experiments

import (
	"fmt"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/stats"
)

// CapSweep is a robustness extension: it bounds the burst buffer that the
// paper's DYAD deployment treats as infinite and measures how each
// data-management solution degrades as the budget shrinks. Budgets are
// expressed in units of the per-node in-flight working set
//
//	W = 2 x pairs-per-node x frame size
//
// (one frame in flight plus one of cushion per local pair). Consumers keep
// no files of their own and producers never unlink, so any finite budget
// evicts steadily as frame history accumulates; the interesting regimes
// start when the budget dips below the in-flight set itself:
//
//   - DYAD with the Lustre mirror (LustreFallback) spills evicted-but-
//     unconsumed frames: consumers find them on the shared filesystem via
//     the degraded-read path, so runs survive at any budget but give back
//     the node-local advantage one mirror read at a time — down toward the
//     Lustre baseline.
//   - The consumed-drop policy refuses to evict unconsumed frames, so an
//     overfull buffer back-pressures producers instead (capacity stalls);
//     runs survive without a mirror at the cost of idle producer time.
//   - XFS under LRU has no mirror below it: once the budget is small
//     enough that a victim scan reaches an unconsumed frame, the consumer's
//     read fails and the run is killed (the chain wraps
//     capacity.ErrEvicted) — counted, like faultsweep's device kills,
//     instead of aborting the sweep.
//   - A budget smaller than one frame cannot stage anything: every write
//     fails fast with capacity.ErrNoSpace (graceful ENOSPC, never a hang).
//
// Eviction order, spill decisions, and stall accounting are all
// event-serialized, so every cell is byte-identical for any -j.
func CapSweep(o Options) (*Report, error) {
	o = o.Defaults()
	jac := mustModel("JAC")
	pairsMulti, pairsXFS := 8, 4
	if o.Quick {
		pairsMulti, pairsXFS = 4, 2
	}
	frame := jac.FrameBytes()
	wMulti := 2 * int64(pairsMulti) * frame // both DYAD node groups hold 8 procs/node
	wXFS := 2 * int64(pairsXFS) * frame

	const inf = float64(0) // multiplier 0 = unbounded (Spec zero value)
	type setup struct {
		name    string // row label: backend+policy
		backend core.Backend
		pairs   int
		single  bool
		policy  string
		mirror  bool      // DYAD only: deploy the Lustre fallback mirror
		working int64     // W for this placement
		caps    []float64 // budget multipliers of W (0 = unbounded)
	}
	setups := []setup{
		// Lustre stages nothing node-locally: the capacity-free reference
		// the DYAD rows degrade toward.
		{"Lustre", core.Lustre, pairsMulti, false, "", false, wMulti, []float64{inf}},
		// 0.25W is one in-flight frame per local pair; 0.0625W is a single
		// frame slot for the whole node — the deep-starvation regimes where
		// most of a production burst is evicted before its consumer reads.
		{"DYAD+mirror lru", core.DYAD, pairsMulti, false, capacity.PolicyLRU, true, wMulti,
			[]float64{inf, 2, 1, 0.5, 0.25, 0.125, 0.0625}},
		{"DYAD consumed-drop", core.DYAD, pairsMulti, false, capacity.PolicyConsumedDrop, false, wMulti,
			[]float64{1, 0.5, 0.25, 0.125, 0.0625}},
		{"XFS lru", core.XFS, pairsXFS, true, capacity.PolicyLRU, false, wXFS,
			[]float64{inf, 0.5, 0.25}},
		{"XFS consumed-drop", core.XFS, pairsXFS, true, capacity.PolicyConsumedDrop, false, wXFS,
			[]float64{0.5, 0.25}},
	}

	capLabel := func(mult float64) string {
		if mult == inf {
			return "inf"
		}
		return fmt.Sprintf("%gW", mult)
	}

	// One flat batch over (setup, cap), exactly like faultsweep: every run
	// is independent and fans across the worker pool at once.
	type key struct{ setup, cap int }
	var keys []key
	var cells []Cell
	for si, s := range setups {
		for ci, mult := range s.caps {
			cfg := core.Config{
				Backend: s.backend, Model: jac, Pairs: s.pairs, SingleNode: s.single,
			}
			if s.backend == core.DYAD {
				cfg.LustreFallback = s.mirror
				// The mirror is the same busy shared filesystem the Lustre
				// baseline runs on: spilled frames are fetched through the
				// background interference too.
				cfg.LustreNoise = s.mirror
			}
			if mult != inf || s.policy != "" {
				cfg.Capacity = &capacity.Spec{
					StagingBytes: int64(mult * float64(s.working)),
					Policy:       s.policy,
				}
			}
			keys = append(keys, key{si, ci})
			cells = append(cells, Cell{Cfg: cfg, Label: fmt.Sprintf("cap %s %s", s.name, capLabel(mult))})
		}
	}
	// The ENOSPC cell: a budget smaller than a single frame can never stage
	// anything; every producer write fails fast with capacity.ErrNoSpace.
	nospaceKey := key{len(setups), 0}
	keys = append(keys, nospaceKey)
	cells = append(cells, Cell{Cfg: core.Config{
		Backend: core.XFS, Model: jac, Pairs: pairsXFS, SingleNode: true,
		Capacity: &capacity.Spec{StagingBytes: frame / 2},
	}, Label: "cap XFS half-frame"})

	results, err := o.Run(cells, CapacityKills...)
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID: "capsweep",
		Title: fmt.Sprintf(
			"Extension: finite burst-buffer capacity sweep (JAC, budgets in units of W = in-flight working set, W=%.1f MiB multi / %.1f MiB single)",
			float64(wMulti)/(1<<20), float64(wXFS)/(1<<20)),
		Columns: []string{"system", "cap", "makespan", "prod_move", "cons_move", "speedup", "evict",
			"spill_mb", "degraded_mb", "stall_s", "failed"},
	}

	type cell struct {
		ok, failed                            int
		makespan, prodMove, consMove          float64
		evict, spillMB, degradedMB, stallSecs float64
		readMB                                float64
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
			c.prodMove += res.Producer.Movement.Seconds()
			c.consMove += res.Consumer.Movement.Seconds()
			c.evict += float64(res.Capacity.Evictions + res.Capacity.CacheEvictions)
			c.spillMB += float64(res.Capacity.SpilledBytes) / (1 << 20)
			c.degradedMB += float64(res.Recovery.DegradedBytes) / (1 << 20)
			c.stallSecs += res.Capacity.StallTime().Seconds()
			c.readMB += float64(res.BytesRead) / (1 << 20)
		}
	}
	mean := func(c *cell, sum float64) float64 { return sum / float64(c.ok) }
	lustre := cellOf[key{0, 0}]
	baseCons := 0.0
	if lustre.ok > 0 {
		baseCons = mean(lustre, lustre.consMove)
	}
	row := func(name, cap string, c *cell) {
		out := []string{name, cap}
		if c.ok == 0 {
			out = append(out, "-", "-", "-", "-", "-", "-", "-", "-")
		} else {
			speedup := "-"
			if cons := mean(c, c.consMove); baseCons > 0 && cons > 0 {
				// The paper's Fig 6 headline metric: consumer data-movement
				// speedup over the Lustre baseline. This — not the
				// idle-dominated total — is what capacity starvation attacks.
				speedup = fmt.Sprintf("%.1fx", baseCons/cons)
			}
			out = append(out,
				stats.FormatSeconds(mean(c, c.makespan)),
				stats.FormatSeconds(mean(c, c.prodMove)),
				stats.FormatSeconds(mean(c, c.consMove)),
				speedup,
				fmt.Sprintf("%.1f", mean(c, c.evict)),
				fmt.Sprintf("%.2f", mean(c, c.spillMB)),
				fmt.Sprintf("%.2f", mean(c, c.degradedMB)),
				stats.FormatSeconds(mean(c, c.stallSecs)),
			)
		}
		out = append(out, fmt.Sprintf("%d/%d", c.failed, o.Reps))
		r.Rows = append(r.Rows, out)
	}
	for si, s := range setups {
		for ci, mult := range s.caps {
			row(s.name, capLabel(mult), cellOf[key{si, ci}])
		}
	}
	row("XFS lru", "0.5frame", cellOf[nospaceKey])

	// Headlines: how fast does the consumer data-movement speedup decay as
	// the budget shrinks, and where does DYAD's data movement cross over to
	// the shared filesystem?
	dySetup := setups[1]
	last := len(dySetup.caps) - 1
	c0, c1 := cellOf[key{1, 0}], cellOf[key{1, last}]
	if baseCons > 0 && c0.ok > 0 && c1.ok > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"DYAD+mirror consumer data-movement speedup decays monotonically from %.1fx (inf) to %.1fx (%s) as spills push reads to the mirror — the capacity axis erodes the node-local term of DYAD's advantage; the synchronization term (idle time) survives starvation",
			baseCons/mean(c0, c0.consMove), baseCons/mean(c1, c1.consMove), capLabel(dySetup.caps[last])))
	}
	if lustre.ok > 0 && c1.ok > 0 {
		if pm, pl := mean(c1, c1.prodMove), mean(lustre, lustre.prodMove); pm > pl {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"producer crossover: DYAD+mirror at %s spends %.2fx the Lustre baseline's producer data-movement time (staging writes that mostly evict unread, plus the mirror write-through) — the first regime on-model where DYAD moves data for longer than Lustre",
				capLabel(dySetup.caps[last]), pm/pl))
		}
	}
	for ci := range dySetup.caps {
		c := cellOf[key{1, ci}]
		if c.ok == 0 || c.readMB == 0 {
			continue
		}
		if frac := mean(c, c.degradedMB) / mean(c, c.readMB); frac > 0.5 {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"movement crossover at %s: %.0f%% of consumed bytes are served by the Lustre mirror rather than node-local staging",
				capLabel(dySetup.caps[ci]), 100*frac))
			break
		}
	}
	r.Notes = append(r.Notes,
		"consumed-drop never evicts an unconsumed frame: overfull buffers back-pressure producers (stall_s) instead of dropping data, so runs survive without a mirror",
		"XFS under LRU dies once victims reach unconsumed frames (reads fail with capacity.ErrEvicted); under a sub-frame budget every write fails fast with capacity.ErrNoSpace — counted above, never a hang or panic",
		"budgets and eviction order are event-serialized state: this table is byte-identical for any -j",
		"extends the paper: finite burst-buffer capacity; not a paper figure",
	)
	return r, nil
}
