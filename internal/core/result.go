package core

import (
	"fmt"
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
// plot, split into red (data movement) and blue (idle) components.
type Totals struct {
	Movement time.Duration
	Idle     time.Duration
}

// Sum returns movement + idle.
func (t Totals) Sum() time.Duration { return t.Movement + t.Idle }

// PerFrame scales the totals to one frame.
func (t Totals) PerFrame(frames int) Totals {
	if frames < 1 {
		return t
	}
	return Totals{Movement: t.Movement / time.Duration(frames), Idle: t.Idle / time.Duration(frames)}
}

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

	// ProducerProfiles / ConsumerProfiles hold per-pair Caliper profiles
	// when Config.KeepProfiles is set.
	ProducerProfiles []*caliper.Profile
	ConsumerProfiles []*caliper.Profile

	// Spans holds the run's virtual-time span trace when Config.RecordSpans
	// is set (nil otherwise); emission order is event-execution order.
	Spans []trace.Span
	// SpanStats are per-operation counters and latency histograms derived
	// from Spans. Nil when tracing is off.
	SpanStats []trace.OpStat

	// Metrics holds the run's sampled resource registry when
	// Config.MetricsInterval is set (nil otherwise).
	Metrics *metrics.Registry

	// Crit holds the run's extracted critical path and per-frame provenance
	// lineages when Config.CritPath is set (nil otherwise).
	Crit *critpath.Summary
}

// collect derives the Result from the rig's profiles and counters.
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
	for pair := 0; pair < r.cfg.Pairs; pair++ {
		t := SplitProducer(r.cfg.Backend, &r.anns[2*pair])
		res.Producer.Movement += t.Movement
		res.Producer.Idle += t.Idle
		t = SplitConsumer(r.cfg.Backend, &r.anns[2*pair+1])
		res.Consumer.Movement += t.Movement
		res.Consumer.Idle += t.Idle
	}
	n := time.Duration(r.cfg.Pairs)
	res.Producer.Movement /= n
	res.Producer.Idle /= n
	res.Consumer.Movement /= n
	res.Consumer.Idle /= n

	if r.cfg.KeepProfiles {
		res.ProducerProfiles = make([]*caliper.Profile, r.cfg.Pairs)
		res.ConsumerProfiles = make([]*caliper.Profile, r.cfg.Pairs)
		for pair := range res.ProducerProfiles {
			res.ProducerProfiles[pair] = r.anns[2*pair].Profile()
			res.ConsumerProfiles[pair] = r.anns[2*pair+1].Profile()
		}
	}
	if r.rec != nil {
		if r.rec.Streaming() {
			// Streamed spans were serialized on emission and never retained;
			// the per-operation statistics were folded incrementally.
			res.SpanStats = r.rec.Stats()
		} else {
			res.Spans = r.rec.Spans()
			res.SpanStats = trace.Aggregate(res.Spans)
		}
	}
	if r.cp != nil {
		g := r.cp.Finish(r.eng.Now())
		res.Crit = &critpath.Summary{Path: critpath.Extract(g), Frames: g.Lineages, Unclosed: g.Unclosed}
		if err := checkCrit(res.Crit); err != nil {
			return nil, err
		}
	}
	if r.reg != nil && r.cfg.MetricsSink == nil {
		// A streamed registry's samples are already on disk and its series
		// are pool-recycled, so only buffered runs retain the registry.
		res.Metrics = r.reg
	}
	if r.rec != nil && r.rec.Streaming() {
		// Close out the run in the shared Chrome stream, appending counter
		// tracks when this run also buffered metrics (nil-safe otherwise).
		r.cfg.TraceStream.EndRun(r.rec, metrics.CounterTracks(res.Metrics))
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

// RegionTotals is a per-process record of region times: a finished
// *caliper.Profile, or the *caliper.Annotator that is recording one.
type RegionTotals interface {
	TotalOf(name string) time.Duration
}

// SplitProducer decomposes a producer profile into data movement and idle
// time exactly as §IV-C describes: for DYAD, all time inside the DYAD
// produce path counts as movement (including metadata management — the
// source of DYAD's production overhead); for XFS/Lustre, movement is the
// POSIX write and idle is the explicit synchronization.
func SplitProducer(b Backend, prof RegionTotals) Totals {
	if b == DYAD {
		return Totals{
			Movement: prof.TotalOf("dyad_produce"),
			// Zero in normal runs; nonzero only under ForceCoarseSync.
			Idle: prof.TotalOf("explicit_sync"),
		}
	}
	return Totals{
		Movement: prof.TotalOf("write_single_buf"),
		Idle:     prof.TotalOf("explicit_sync"),
	}
}

// SplitConsumer decomposes a consumer profile: for DYAD, idle is the KVS
// synchronization (dyad_fetch) and movement is the rest of dyad_consume;
// for XFS/Lustre, movement is the POSIX read and idle is explicit_sync.
func SplitConsumer(b Backend, prof RegionTotals) Totals {
	if b == DYAD {
		consume := prof.TotalOf("dyad_consume")
		fetch := prof.TotalOf("dyad_fetch")
		// explicit_sync is zero in normal DYAD runs; it appears only when
		// ForceCoarseSync layers the coarse coupling over DYAD transport.
		return Totals{Movement: consume - fetch, Idle: fetch + prof.TotalOf("explicit_sync")}
	}
	return Totals{
		Movement: prof.TotalOf("read_single_buf"),
		Idle:     prof.TotalOf("explicit_sync"),
	}
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
	Cfg  Config
	Reps int

	ProdMovement stats.Summary // seconds
	ProdIdle     stats.Summary
	ConsMovement stats.Summary
	ConsIdle     stats.Summary
	Makespan     stats.Summary
}

// Aggregated computes the cross-run summary of results (all from the same
// configuration).
func Aggregated(results []*Result) Aggregate {
	agg := Aggregate{Reps: len(results)}
	if len(results) == 0 {
		return agg
	}
	agg.Cfg = results[0].Cfg
	var pm, pi, cm, ci, mk []float64
	for _, r := range results {
		pm = append(pm, r.Producer.Movement.Seconds())
		pi = append(pi, r.Producer.Idle.Seconds())
		cm = append(cm, r.Consumer.Movement.Seconds())
		ci = append(ci, r.Consumer.Idle.Seconds())
		mk = append(mk, r.Makespan.Seconds())
	}
	agg.ProdMovement = stats.Summarize(pm)
	agg.ProdIdle = stats.Summarize(pi)
	agg.ConsMovement = stats.Summarize(cm)
	agg.ConsIdle = stats.Summarize(ci)
	agg.Makespan = stats.Summarize(mk)
	return agg
}

// ProdTotalMean returns mean production time (movement + idle) in seconds.
func (a Aggregate) ProdTotalMean() float64 { return a.ProdMovement.Mean + a.ProdIdle.Mean }

// ConsTotalMean returns mean consumption time (movement + idle) in seconds.
func (a Aggregate) ConsTotalMean() float64 { return a.ConsMovement.Mean + a.ConsIdle.Mean }
