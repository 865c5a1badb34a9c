package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/caliper"
	"repro/internal/capacity"
	"repro/internal/critpath"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Totals is one role's time decomposition for a whole run (all frames),
// averaged over the ensemble's pairs — the quantity the paper's bar charts
// plot, split into red (data movement) and blue (idle) components: the
// time in the role's regions of that class (sim.Proc.Tally).
type Totals struct {
	Movement time.Duration
	Idle     time.Duration
}

// Sum returns movement + idle.
func (t Totals) Sum() time.Duration { return t.Movement + t.Idle }

func (t Totals) String() string {
	return fmt.Sprintf("movement=%v idle=%v", t.Movement, t.Idle)
}

// Result is the measurement of one workflow run.
type Result struct {
	Cfg Config

	// Producer and Consumer are mean-over-pairs whole-run decompositions.
	Producer Totals
	Consumer Totals

	// Makespan is the end-to-end virtual duration of the run.
	Makespan time.Duration

	// FramesRead and BytesRead are conservation counters.
	FramesRead int
	BytesRead  int64

	// Recovery records the run's fault-injection and recovery activity
	// (timeouts, retries, failovers, degraded-mode traffic). All zero on
	// healthy runs.
	Recovery faults.Metrics

	// Capacity records the run's capacity-pressure activity (evictions,
	// spills, drops, back-pressure stalls). All zero when Config.Capacity
	// is off or the budgets were never pressured.
	Capacity capacity.Metrics

	// ProducerProfiles / ConsumerProfiles hold per-pair Caliper profiles,
	// and ConsumerTotals each pair's consumer decomposition, when
	// Config.KeepProfiles is set.
	ProducerProfiles []*caliper.Profile
	ConsumerProfiles []*caliper.Profile
	ConsumerTotals   []Totals

	// Spans holds the run's virtual-time span trace when Config.RecordSpans
	// is set (nil otherwise); emission order is event-execution order. It
	// is an exact-length copy owned by the Result: the recorder it came
	// from serves the pool's next run.
	Spans []trace.Span

	// SpanTotals holds each process's span time per class, folded from the
	// non-detail spans as they were emitted, in the order of each process's
	// first one, when the run was traced (Config.RecordSpans or
	// Config.TraceStream; nil otherwise). It is an exact-size copy owned by
	// the Result, and the input of the experiments' breakdown reports.
	SpanTotals []trace.ProcTotals

	// Metrics holds the run's sampled resource registry when
	// Config.MetricsInterval is set (nil otherwise). Its probes are
	// dropped, so it holds the samples and not the run's components.
	Metrics *metrics.Registry

	// Crit holds the run's extracted critical path and per-frame provenance
	// lineages when Config.CritPath is set (nil otherwise).
	Crit *critpath.Summary

	// HostCost is what the run cost the simulator's kernel.
	HostCost HostCost
}

// HostCost counts a run's kernel work. Both counts are deterministic and
// observation-only, like the measurements: they size the simulated
// timeline (Events) and the coroutine switches paid for it (Handoffs), and
// change only with the model or the kernel, never with the host.
type HostCost struct {
	Events   int64 // events fired (sim.Engine.Events)
	Handoffs int64 // coroutine resumes by the driver (sim.Engine.Handoffs)
}

// roleTotals sums the tallies (sim.Proc.Tally) of one role's processes
// over the pairs: the producers for role 0, the consumers for role 1.
func (r *rig) roleTotals(role int) Totals {
	var t Totals
	procs := r.eng.Procs()[r.firstProc:]
	for pair := 0; pair < r.cfg.Pairs; pair++ {
		m, i := procs[2*pair+role].Tally()
		t.Movement += m
		t.Idle += i
	}
	return t
}

// collect derives the Result from the rig's process tallies and counters.
func (r *rig) collect() (*Result, error) {
	if len(r.decodeErrs) > 0 {
		return nil, fmt.Errorf("core: %d frame verification failures, first: %w", len(r.decodeErrs), r.decodeErrs[0])
	}
	wantFrames := r.cfg.Pairs * r.cfg.Frames
	if r.framesRead != wantFrames {
		return nil, fmt.Errorf("core: consumed %d frames, want %d", r.framesRead, wantFrames)
	}
	wantBytes := int64(wantFrames) * r.cfg.frameSize
	if !r.cfg.RealFrames && r.bytesRead != wantBytes {
		return nil, fmt.Errorf("core: consumed %d bytes, want %d", r.bytesRead, wantBytes)
	}

	res := &Result{
		Cfg:        r.cfg.Config,
		Makespan:   r.eng.Now(),
		FramesRead: r.framesRead,
		BytesRead:  r.bytesRead,
		HostCost:   HostCost{Events: r.eng.Events(), Handoffs: r.eng.Handoffs()},
	}
	res.Recovery = r.recovery
	if r.capMet != nil {
		res.Capacity = *r.capMet
	}
	if r.dy != nil {
		res.Recovery.Add(r.dy.Recovery)
	}
	if r.lfs != nil {
		res.Recovery.Add(r.lfs.Recovery)
	}
	res.Recovery.LinkStalls += r.cl.LinkStalls
	res.Recovery.RecoveryTime += r.cl.LinkStallTime
	n := time.Duration(r.cfg.Pairs)
	prod, cons := r.roleTotals(0), r.roleTotals(1)
	res.Producer = Totals{Movement: prod.Movement / n, Idle: prod.Idle / n}
	res.Consumer = Totals{Movement: cons.Movement / n, Idle: cons.Idle / n}

	if r.cfg.KeepProfiles {
		procs := r.eng.Procs()[r.firstProc:]
		res.ProducerProfiles = make([]*caliper.Profile, r.cfg.Pairs)
		res.ConsumerProfiles = make([]*caliper.Profile, r.cfg.Pairs)
		res.ConsumerTotals = make([]Totals, r.cfg.Pairs)
		for pair := range res.ProducerProfiles {
			res.ProducerProfiles[pair] = procs[2*pair].Profile()
			res.ConsumerProfiles[pair] = procs[2*pair+1].Profile()
			m, i := procs[2*pair+1].Tally()
			res.ConsumerTotals[pair] = Totals{Movement: m, Idle: i}
		}
	}
	if r.rec != nil {
		res.SpanTotals = make([]trace.ProcTotals, len(r.rec.Totals()))
		copy(res.SpanTotals, r.rec.Totals())
		if !r.rec.Streaming() {
			res.Spans = slices.Clone(r.rec.Spans())
		}
	}
	if r.cp != nil {
		g := r.cp.Finish(r.eng.Now())
		res.Crit = &critpath.Summary{Path: critpath.Extract(g), Frames: g.Lineages, Unclosed: g.Unclosed}
		if err := checkCrit(res.Crit); err != nil {
			return nil, err
		}
	}
	if r.reg != nil {
		r.reg.DropProbes()
		res.Metrics = r.reg
	}
	if r.rec.Streaming() {
		// Close out the run in the shared Chrome stream, appending its
		// flows when it also recorded the critical path and its counter
		// tracks when it was also metered, as buffered collection does.
		var flows []trace.Flow
		if res.Crit != nil {
			flows = critpath.FlowEvents(res.Crit.Frames)
		}
		r.cfg.TraceStream.EndRun(r.rec, flows, metrics.CounterTracks(res.Metrics))
	}
	return res, nil
}

// checkCrit is a recorded run's critical-path conservation check: the
// extracted path tiles its makespan exactly, every instant attributed or
// untracked, and no foreground process ended inside a labeled region.
// (The path's makespan is the last foreground process's end; it is not
// compared with Result.Makespan, which on noisy Lustre runs includes the
// background noise winding down after StopNoise.)
func checkCrit(s *critpath.Summary) error {
	if p := s.Path; p.Attributed+p.Untracked != p.Makespan {
		return fmt.Errorf("core: critical path covers %v attributed + %v untracked of its makespan %v",
			p.Attributed, p.Untracked, p.Makespan)
	}
	if s.Unclosed != 0 {
		return fmt.Errorf("core: %d processes ended with a critical-path region open", s.Unclosed)
	}
	return nil
}

// Repeat runs cfg reps times with distinct seeds and returns all results.
// Repetitions execute in parallel across DefaultWorkers goroutines (the
// results are deterministic regardless; see RunMany). Use RepeatWorkers to
// control the worker count.
func Repeat(cfg Config, reps int) ([]*Result, error) {
	return RepeatWorkers(cfg, reps, 0)
}

// Aggregate summarizes repeated runs of one configuration.
type Aggregate struct {
	ProdMovement stats.Summary // seconds
	ProdIdle     stats.Summary
	ConsMovement stats.Summary
	ConsIdle     stats.Summary
	Makespan     stats.Summary
}

// Aggregated computes the cross-run summary of results (all from the same
// configuration).
func Aggregated(results []*Result) Aggregate {
	var pm, pi, cm, ci, mk []float64
	for _, r := range results {
		pm = append(pm, r.Producer.Movement.Seconds())
		pi = append(pi, r.Producer.Idle.Seconds())
		cm = append(cm, r.Consumer.Movement.Seconds())
		ci = append(ci, r.Consumer.Idle.Seconds())
		mk = append(mk, r.Makespan.Seconds())
	}
	return Aggregate{
		ProdMovement: stats.Summarize(pm),
		ProdIdle:     stats.Summarize(pi),
		ConsMovement: stats.Summarize(cm),
		ConsIdle:     stats.Summarize(ci),
		Makespan:     stats.Summarize(mk),
	}
}

// ProdTotalMean returns mean production time (movement + idle) in seconds.
func (a Aggregate) ProdTotalMean() float64 { return a.ProdMovement.Mean + a.ProdIdle.Mean }

// ConsTotalMean returns mean consumption time (movement + idle) in seconds.
func (a Aggregate) ConsTotalMean() float64 { return a.ConsMovement.Mean + a.ConsIdle.Mean }
