package calib

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dyad"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/stats"
)

// Goal is one predicate the scenario search can chase. Goals generalize
// calibration: instead of minimizing distance to the paper's numbers,
// they look for qualitative reversals of them.
type Goal struct {
	ID    string
	Title string
	Run   func(Options) (*experiments.Report, error)
}

// Goals returns every search goal.
func Goals() []Goal {
	return []Goal{
		{"xfs-beats-dyad",
			"find a configuration where XFS consumption beats DYAD's",
			searchXFSBeatsDYAD},
		{"fault-breaks-10x",
			"minimum fault rate that breaks DYAD's 10x consumption win over Lustre",
			searchFaultBreaks10x},
	}
}

// GoalByID returns the goal with the given id, or an error listing every
// valid id.
func GoalByID(id string) (Goal, error) {
	var ids []string
	for _, g := range Goals() {
		if g.ID == id {
			return g, nil
		}
		ids = append(ids, g.ID)
	}
	sort.Strings(ids)
	return Goal{}, fmt.Errorf("calib: unknown search goal %q (have %s)", id, strings.Join(ids, ", "))
}

// RunGoal runs the goal with the given id.
func RunGoal(id string, o Options) (*experiments.Report, error) {
	g, err := GoalByID(id)
	if err != nil {
		return nil, err
	}
	return g.Run(o)
}

// searchXFSBeatsDYAD scans a deterministic scenario grid — output stride
// (the frame-frequency axis), forced coarse-grained synchronization (the
// loose-coupling axis), and the all-mechanisms ablation (the transport
// axis) — around the Fig 5 workload (single-node JAC, 4 pairs; the fig5
// explain target) for configurations where XFS's overall
// consumption is faster than DYAD's. The paper's Finding 1 predicts where
// the reversal lives: take away the loose coupling and DYAD pays its
// metadata overhead (dyad_produce > raw XFS write) with nothing left to
// buy.
func searchXFSBeatsDYAD(o Options) (*experiments.Report, error) {
	o = o.Defaults()
	noAll := dyad.DefaultParams()
	noAll.NoAdaptiveSync = true
	noAll.NoBurstBuffer = true
	noAll.NoDirectTransfer = true

	fig5, err := experiments.ExplainTargetByID("fig5")
	if err != nil {
		return nil, err
	}
	type scenario struct {
		stride  int
		coarse  bool
		ablated bool
	}
	var scenarios []scenario
	for _, stride := range []int{220, 880, 3520} {
		for _, coarse := range []bool{false, true} {
			for _, ablated := range []bool{false, true} {
				scenarios = append(scenarios, scenario{stride, coarse, ablated})
			}
		}
	}
	// One flat batch: per scenario a DYAD variant and an XFS reference on
	// the same strided model, one repetition each.
	var cells []experiments.Cell
	for _, sc := range scenarios {
		xfCfg := fig5.Base
		xfCfg.Model.Stride = sc.stride
		xfCfg.Backend = core.XFS
		dyCfg := xfCfg
		dyCfg.Backend = core.DYAD
		dyCfg.ForceCoarseSync = sc.coarse
		if sc.ablated {
			params := noAll
			dyCfg.DYADOverride = &params
		}
		cells = append(cells, experiments.Cell{Cfg: dyCfg, Reps: 1}, experiments.Cell{Cfg: xfCfg, Reps: 1})
	}
	results, err := o.sweep().Run(cells)
	if err != nil {
		return nil, err
	}

	r := &experiments.Report{
		ID:      "search:xfs-beats-dyad",
		Title:   "Scenario search: where does XFS consumption beat DYAD? (JAC, 4 pairs, single node)",
		Columns: []string{"stride", "coarse_sync", "ablated", "dyad_cons", "xfs_cons", "xfs/dyad", "winner"},
	}
	type hit struct {
		scenario
		ratio float64
	}
	var hits []hit
	for i, sc := range scenarios {
		dy, xf := results[2*i][0], results[2*i+1][0]
		dyCons := dy.Consumer.Sum().Seconds()
		xfCons := xf.Consumer.Sum().Seconds()
		ratio := stats.Ratio(xfCons, dyCons)
		winner := "DYAD"
		if ratio < 1 {
			winner = "XFS"
			hits = append(hits, hit{sc, ratio})
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", sc.stride),
			fmt.Sprintf("%v", sc.coarse),
			fmt.Sprintf("%v", sc.ablated),
			stats.FormatSeconds(dyCons),
			stats.FormatSeconds(xfCons),
			stats.FormatRatioPrec(ratio, 3),
			winner,
		})
	}
	if len(hits) == 0 {
		r.Notes = append(r.Notes,
			"predicate unsatisfied on this grid: DYAD's consumption wins every scenario — the loose coupling survives every stride and ablation tested")
	} else {
		best := hits[0]
		for _, h := range hits[1:] {
			if h.ratio < best.ratio {
				best = h
			}
		}
		r.Notes = append(r.Notes, fmt.Sprintf(
			"predicate satisfied in %d of %d scenarios; strongest reversal at stride=%d coarse_sync=%v ablated=%v (XFS %s of DYAD's consumption)",
			len(hits), len(scenarios), best.stride, best.coarse, best.ablated,
			stats.FormatRatioPrec(best.ratio, 3)),
			"mechanism: forcing coarse-grained synchronization removes the idle-time gap that DYAD's loose coupling buys, leaving DYAD's per-frame metadata commit (dyad_produce > raw XFS write) as pure overhead — the paper's Finding 1 run in reverse")
	}
	r.Notes = append(r.Notes, "scenario grid and verdicts are deterministic: byte-identical for any -j")
	return r, nil
}

// searchFaultBreaks10x bisects the fault-rate axis for the smallest rate
// at which DYAD's overall-consumption win over a clean Lustre baseline
// drops below 10x (or DYAD stops surviving at all), on the Fig 6 workload
// (two-node JAC, 8 pairs; the fig6 explain target). The fault mix is the
// fault sweep's DYAD mix; recovery runs with the Lustre fallback mirror
// deployed, so what breaks first is time, not data.
func searchFaultBreaks10x(o Options) (*experiments.Report, error) {
	o = o.Defaults()
	fig6, err := experiments.ExplainTargetByID("fig6")
	if err != nil {
		return nil, err
	}
	pairs := fig6.Base.Pairs
	base := faults.Spec{DeviceStalls: 1, LinkDegrades: 2, LinkOutages: 1, BrokerCrashes: 1}

	// meanCons runs o.Reps repetitions of cfg and returns the mean
	// consumption over survivors (NaN if none survive).
	meanCons := func(cfg core.Config) (float64, int, error) {
		results, err := o.sweep().Run([]experiments.Cell{{Cfg: cfg}}, experiments.SearchKills...)
		if err != nil {
			return 0, 0, err
		}
		sum, ok := 0.0, 0
		for _, res := range results[0] {
			if res == nil {
				continue
			}
			ok++
			sum += res.Consumer.Sum().Seconds()
		}
		return stats.Ratio(sum, float64(ok)), o.Reps - ok, nil
	}

	luCfg := fig6.Base
	luCfg.Backend = core.Lustre
	luCons, _, err := meanCons(luCfg)
	if err != nil {
		return nil, err
	}

	r := &experiments.Report{
		ID: "search:fault-breaks-10x",
		Title: fmt.Sprintf(
			"Scenario search: minimum fault rate breaking DYAD's 10x win over Lustre (JAC, %d pairs, Lustre mirror deployed)", pairs),
		Columns: []string{"rate", "dyad_cons", "win_vs_lustre", "killed", "verdict"},
	}
	probe := func(rate float64) (broken bool, err error) {
		spec := base.Scale(rate)
		cfg := fig6.Base
		cfg.Backend = core.DYAD
		cfg.LustreFallback = true
		if rate > 0 {
			cfg.Faults = &spec
		}
		dyCons, killed, err := meanCons(cfg)
		if err != nil {
			return false, err
		}
		win := stats.Ratio(luCons, dyCons)
		broken = killed == o.Reps || win < 10
		verdict := "holds"
		if broken {
			verdict = "broken"
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.3gx", rate),
			stats.FormatSeconds(dyCons),
			stats.FormatRatioPrec(win, 1),
			fmt.Sprintf("%d/%d", killed, o.Reps),
			verdict,
		})
		return broken, nil
	}

	lo, hi := 0.0, 64.0
	atLo, err := probe(lo)
	if err != nil {
		return nil, err
	}
	atHi, err := probe(hi)
	if err != nil {
		return nil, err
	}
	switch {
	case atLo:
		r.Notes = append(r.Notes, "the 10x win is already broken with no faults injected — nothing to bisect")
	case !atHi:
		r.Notes = append(r.Notes, fmt.Sprintf(
			"predicate unsatisfied: DYAD keeps a >=10x consumption win over Lustre up to %gx the fault-sweep mix — recovery (timeout+backoff, staging refetch, mirror reads) absorbs the whole axis", hi))
	default:
		// Deterministic bisection: fixed midpoints, budget-capped depth.
		iters := 8
		if o.Budget > 0 && o.Budget < iters {
			iters = o.Budget
		}
		for i := 0; i < iters; i++ {
			mid := (lo + hi) / 2
			broken, err := probe(mid)
			if err != nil {
				return nil, err
			}
			if broken {
				hi = mid
			} else {
				lo = mid
			}
		}
		r.Notes = append(r.Notes, fmt.Sprintf(
			"minimum breaking rate: %.3gx the fault-sweep DYAD mix (bracketed to [%.3g, %.3g] in %d bisection probes); below it recovery absorbs the faults, above it recovery time itself erodes the win",
			hi, lo, hi, iters))
	}
	r.Notes = append(r.Notes,
		"fault plans are pure functions of (spec, seed): the bisection path and every cell are byte-identical for any -j")
	return r, nil
}
