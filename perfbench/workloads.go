package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro"
)

// sizes scales the workloads; smokeSizes shrinks every one to a fraction
// of a second per iteration for the benchmark's own tests.
type sizes struct {
	figFrames int // paper-figs and recovery: frames per pair of the quick sweeps
	ensPairs  int // ensemble-1024: producer-consumer pairs per run
	ensFrames int
	obsFrames int // observed: frames per pair

	minSamples int // least number of timed iterations in a run
	setupRuns  int // fresh processes whose cold start setup_s takes the median of
}

var (
	fullSizes  = sizes{figFrames: 8, ensPairs: 1024, ensFrames: 4, obsFrames: 32, minSamples: 5, setupRuns: 5}
	smokeSizes = sizes{figFrames: 2, ensPairs: 16, ensFrames: 2, obsFrames: 2, minSamples: 2, setupRuns: 1}
)

// workload is one named input set. README.md records why each exists.
type workload struct {
	name    string
	prepare func(seed uint64, sz sizes) (*instance, error)
}

// instance is a workload built for one seed.
type instance struct {
	// iterate runs the workload once through the public API and writes
	// every output it produced (rendered reports, export bytes, measured
	// numbers) to out; the benchmark compares those bytes across iterations.
	iterate func(d *callTimer, out io.Writer) error
	// probes are the single-run configurations the traced run times per
	// simulated frame and records spans on, with every sink off unless the
	// workload itself turns one on.
	probes []repro.Config
	// sinkConfigs, when set, are run with each observability sink alone on
	// to build the sink on/off table.
	sinkConfigs []repro.Config
}

var workloads = []workload{
	{"paper-figs", paperFigs},
	{"ensemble-1024", ensemble},
	{"observed", observed},
	{"recovery", recovery},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// figIDs are the paper's figures the paper-figs workload regenerates.
var figIDs = []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"}

// figOptions are the experiment options of paper-figs and recovery: the
// quick sweeps at reps repetitions per configuration, one simulation worker.
func figOptions(seed uint64, sz sizes, reps int) repro.ExperimentOptions {
	return repro.ExperimentOptions{Quick: true, Reps: reps, Frames: sz.figFrames, Seed: seed, Workers: 1}
}

// runConfig builds one run the way the experiments package does: compute
// jitter on, and the shared-filesystem background load on Lustre.
func runConfig(b repro.Backend, m repro.Model, pairs, frames int, single bool, seed uint64) repro.Config {
	return repro.Config{Backend: b, Model: m, Pairs: pairs, Frames: frames, SingleNode: single,
		Seed: seed, ComputeJitter: 0.004, LustreNoise: b == repro.Lustre}
}

func paperFigs(seed uint64, sz sizes) (*instance, error) {
	jac, err := repro.ModelByName("JAC")
	if err != nil {
		return nil, err
	}
	o := figOptions(seed, sz, 1)
	return &instance{
		iterate: func(d *callTimer, out io.Writer) error { return runExperiments(d, out, o, figIDs) },
		// The largest Fig 5 and Fig 6 ensembles: one run per backend.
		probes: []repro.Config{
			runConfig(repro.DYAD, jac, 4, sz.figFrames, true, seed),
			runConfig(repro.XFS, jac, 4, sz.figFrames, true, seed),
			runConfig(repro.DYAD, jac, 8, sz.figFrames, false, seed),
			runConfig(repro.Lustre, jac, 8, sz.figFrames, false, seed),
		},
	}, nil
}

func ensemble(seed uint64, sz sizes) (*instance, error) {
	jac, err := repro.ModelByName("JAC")
	if err != nil {
		return nil, err
	}
	// Two repetitions in one RunMany call, so the second reuses the first's
	// pooled engine and cluster.
	cfgs := []repro.Config{
		runConfig(repro.DYAD, jac, sz.ensPairs, sz.ensFrames, false, seed),
		runConfig(repro.DYAD, jac, sz.ensPairs, sz.ensFrames, false, seed+0x9e3779b9),
	}
	return &instance{
		iterate: func(d *callTimer, out io.Writer) error {
			res, err := runChecked(cfgs)
			if err != nil {
				return err
			}
			writeResults(out, res)
			return nil
		},
		probes: cfgs[:1],
	}, nil
}

func observed(seed uint64, sz sizes) (*instance, error) {
	jac, err := repro.ModelByName("JAC")
	if err != nil {
		return nil, err
	}
	// The Fig 5 (single node, DYAD vs XFS) and Fig 6 (two nodes, DYAD vs
	// Lustre) sweeps. diffs pair each figure's largest DYAD run with its
	// traditional counterpart for the critical-path explain.
	var plain []repro.Config
	var diffs [][2]int
	sweep := func(other repro.Backend, pairs []int, single bool) {
		for _, p := range pairs {
			for _, b := range []repro.Backend{repro.DYAD, other} {
				plain = append(plain, runConfig(b, jac, p, sz.obsFrames, single, seed))
			}
		}
		diffs = append(diffs, [2]int{len(plain) - 2, len(plain) - 1})
	}
	sweep(repro.XFS, []int{1, 2, 4}, true)
	sweep(repro.Lustre, []int{1, 2, 4, 8}, false)

	interval := repro.NewMetricsCollector().SampleInterval()
	cfgs := make([]repro.Config, len(plain))
	for i, c := range plain {
		c.RecordSpans, c.MetricsInterval, c.CritPath = true, interval, true
		cfgs[i] = c
	}
	return &instance{
		iterate: func(d *callTimer, out io.Writer) error {
			tc, mc, cc := repro.NewTraceCollector(), repro.NewMetricsCollector(), repro.NewCritPathCollector()
			results := make([]*repro.Result, len(cfgs))
			for i, c := range cfgs {
				res, err := runChecked([]repro.Config{c})
				if err != nil {
					return err
				}
				tc.Add(c.Label(), res)
				mc.Add(c.Label(), res)
				cc.Add(c.Label(), res)
				results[i] = res[0]
			}
			writeResults(out, results)
			err := d.timed("obs.trace.export_ms", func() error { return repro.WriteChromeTrace(out, tc.Runs) })
			if err != nil {
				return err
			}
			err = d.timed("obs.metrics.export_ms", func() error {
				if err := repro.WriteMetricsCSV(out, mc.Runs); err != nil {
					return err
				}
				return repro.WriteMetricsProm(out, mc.Runs)
			})
			if err != nil {
				return err
			}
			return d.timed("obs.critpath.export_ms", func() error {
				if err := cc.WriteWaterfall(out); err != nil {
					return err
				}
				for _, p := range diffs {
					a, b := results[p[0]], results[p[1]]
					diff := repro.DiffCritPaths(a.Cfg.Backend.String(), a.Crit.Path, b.Cfg.Backend.String(), b.Crit.Path)
					fmt.Fprintf(out, "%+v\n", *diff)
				}
				return nil
			})
		},
		probes:      cfgs,
		sinkConfigs: plain,
	}, nil
}

func recovery(seed uint64, sz sizes) (*instance, error) {
	jac, err := repro.ModelByName("JAC")
	if err != nil {
		return nil, err
	}
	// Three repetitions: with one, the seed's fault plan alone moves the
	// host time of a run by about 8%.
	o := figOptions(seed, sz, 3)
	f := sz.figFrames
	// One faulted run per backend (faultsweep's mixes at 2x), and DYAD under
	// a two-frame staging budget with each eviction policy.
	dyad := runConfig(repro.DYAD, jac, 4, f, false, seed)
	dyad.LustreFallback = true
	dyad.Faults = &repro.FaultSpec{DeviceStalls: 2, LinkDegrades: 4, LinkOutages: 2, BrokerCrashes: 2}
	xfs := runConfig(repro.XFS, jac, 2, f, true, seed)
	xfs.Faults = &repro.FaultSpec{DeviceStalls: 4}
	lustre := runConfig(repro.Lustre, jac, 4, f, false, seed)
	lustre.Faults = &repro.FaultSpec{LinkDegrades: 2, LinkOutages: 2, OSTOutages: 4, MDSOutages: 1,
		MeanOutage: 1500 * time.Millisecond}
	budget := 2 * jac.FrameBytes()
	lru := runConfig(repro.DYAD, jac, 4, f, false, seed)
	lru.LustreFallback, lru.LustreNoise = true, true
	lru.Capacity = &repro.CapacitySpec{StagingBytes: budget, Policy: repro.PolicyLRU}
	drop := runConfig(repro.DYAD, jac, 4, f, false, seed)
	drop.Capacity = &repro.CapacitySpec{StagingBytes: budget, Policy: repro.PolicyConsumedDrop}
	return &instance{
		iterate: func(d *callTimer, out io.Writer) error {
			return runExperiments(d, out, o, []string{"faultsweep", "capsweep"})
		},
		probes: []repro.Config{dyad, xfs, lustre, lru, drop},
	}, nil
}

// runExperiments regenerates each experiment and renders its report.
func runExperiments(d *callTimer, out io.Writer, o repro.ExperimentOptions, ids []string) error {
	for _, id := range ids {
		var r *repro.ExperimentReport
		err := d.timed("experiments.s."+id, func() (err error) {
			r, err = repro.RunExperiment(id, o)
			return err
		})
		if err != nil {
			return err
		}
		if len(r.Rows) == 0 {
			return fmt.Errorf("%s: empty report", id)
		}
		repro.RenderReport(out, r)
	}
	return nil
}

// writeResults writes the measured numbers of each run, one line each.
func writeResults(out io.Writer, results []*repro.Result) {
	for _, r := range results {
		fmt.Fprintf(out, "%s prod=%d/%d cons=%d/%d makespan=%d frames=%d bytes=%d recovery=%+v capacity=%+v\n",
			r.Cfg.Label(), r.Producer.Movement, r.Producer.Idle, r.Consumer.Movement, r.Consumer.Idle,
			r.Makespan, r.FramesRead, r.BytesRead, r.Recovery, r.Capacity)
	}
}

// callTimer times the public calls an iteration names, per iteration. Only
// the profiled phase of a traced run times; elsewhere its maps are nil.
type callTimer struct {
	times   map[string]float64   // this iteration's seconds per key; nil = untimed
	perIter map[string][]float64 // one entry per finished iteration and key
}

func newCallTimer() *callTimer {
	return &callTimer{times: map[string]float64{}, perIter: map[string][]float64{}}
}

// timed runs f, adding its host time to key when timing.
func (d *callTimer) timed(key string, f func() error) error {
	if d.times == nil {
		return f()
	}
	t0 := time.Now()
	err := f()
	d.times[key] += time.Since(t0).Seconds()
	return err
}

// endIteration files this iteration's timings.
func (d *callTimer) endIteration() {
	for k, v := range d.times {
		d.perIter[k] = append(d.perIter[k], v)
		delete(d.times, k)
	}
}

// runChecked runs cfgs in one call with one worker and checks every result.
func runChecked(cfgs []repro.Config) ([]*repro.Result, error) {
	res, err := repro.RunMany(cfgs, 1)
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		if err := conserved(r); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// conserved checks a run's conservation invariants: every frame produced
// was consumed with all its bytes, and a recorded critical path tiles the
// makespan exactly.
func conserved(r *repro.Result) error {
	c := r.Cfg
	want := c.Pairs * c.Frames
	if r.FramesRead != want {
		return fmt.Errorf("%s: consumed %d frames, want %d", c.Label(), r.FramesRead, want)
	}
	if !c.RealFrames && r.BytesRead != int64(want)*c.Model.FrameBytes() {
		return fmt.Errorf("%s: consumed %d bytes, want %d", c.Label(), r.BytesRead, int64(want)*c.Model.FrameBytes())
	}
	if r.Makespan <= 0 {
		return fmt.Errorf("%s: makespan %v", c.Label(), r.Makespan)
	}
	if r.Crit != nil {
		if p := r.Crit.Path; p.Attributed+p.Untracked != p.Makespan {
			return fmt.Errorf("%s: critical path covers %v + %v of makespan %v",
				c.Label(), p.Attributed, p.Untracked, p.Makespan)
		}
	}
	return nil
}

// runProbe runs one configuration alone. killed reports a run ended by an
// injected fault or a capacity budget, an expected outcome the traced run
// leaves out of its counts.
func runProbe(c repro.Config) (res *repro.Result, killed bool, err error) {
	out, err := runChecked([]repro.Config{c})
	if err != nil {
		for _, s := range []error{repro.ErrDeviceFailed, repro.ErrExhausted, repro.ErrEvicted, repro.ErrNoSpace} {
			if errors.Is(err, s) {
				return nil, true, nil
			}
		}
		return nil, false, err
	}
	return out[0], false, nil
}
