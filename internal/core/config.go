// Package core implements the paper's primary contribution: the
// point-to-point MD-inspired producer/consumer workflow (§IV-C) and its
// measurement methodology, which decomposes production and consumption time
// into data-movement time and idle (synchronization) time across three data
// management solutions: DYAD, node-local XFS, and Lustre.
//
// A workflow is an ensemble of producer-consumer pairs. Each producer
// emulates an MD simulation: it sleeps for one stride of MD steps,
// serializes a frame, and writes it through the configured backend. Each
// consumer reads the frame back, deserializes it, and sleeps for the
// analytics duration (set to the nominal frame-generation frequency, as in
// the paper).
//
// Synchronization semantics (the crux of the study):
//
//   - DYAD: fully pipelined. The producer never waits for the consumer; the
//     consumer's first touch blocks on the KVS (loose coupling), after which
//     data is always ready and the cheap lock protocol is used.
//   - XFS / Lustre: coarse-grained manual synchronization, which the paper
//     (§III) describes as serializing producer and consumer tasks ("not
//     overlapping producer and consumer tasks"): the producer's next
//     simulation task is launched only after the consumer has read the
//     previous frame — the workflow-manager-style coupling real traditional
//     workflows use. The consumer's per-frame explicit_sync wait therefore
//     spans the producer's full compute+write period, while the producer's
//     own wait is task-launch serialization, not measured production time.
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/capacity"
	"repro/internal/cluster"
	"repro/internal/dyad"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/trace"
)

// Backend selects the data management solution under test.
type Backend int

// The three data management solutions of the study.
const (
	DYAD Backend = iota
	XFS
	Lustre
)

// String returns the backend name as the paper spells it.
func (b Backend) String() string {
	switch b {
	case DYAD:
		return "DYAD"
	case XFS:
		return "XFS"
	case Lustre:
		return "Lustre"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend parses a backend name (case-sensitive, as printed).
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "DYAD", "dyad":
		return DYAD, nil
	case "XFS", "xfs":
		return XFS, nil
	case "Lustre", "lustre":
		return Lustre, nil
	}
	return 0, fmt.Errorf("core: unknown backend %q (want DYAD, XFS, or Lustre)", s)
}

// MaxProcsPerNode mirrors the paper's placement rule: at most 8 processes
// per node (one per GPU on Corona).
const MaxProcsPerNode = 8

// Config describes one workflow run.
type Config struct {
	// Backend is the data management solution.
	Backend Backend
	// Model is the molecular model (Table I).
	Model models.Model
	// Stride overrides the model's default output stride when > 0.
	Stride int
	// Frames is the number of frames each producer emits (paper: 128).
	Frames int
	// Pairs is the number of producer-consumer pairs in the ensemble.
	Pairs int
	// SingleNode collocates all processes on one node (the paper's
	// DYAD/XFS single-node configuration). Otherwise producers occupy the
	// first half of the compute nodes and consumers the second half.
	SingleNode bool
	// Seed drives all stochastic elements (compute jitter, noise).
	Seed uint64
	// ComputeJitter is the relative standard deviation of per-frame MD
	// compute time (run-to-run variability): finite and >= 0. Zero
	// disables jitter.
	ComputeJitter float64
	// LustreNoise enables background interference on the Lustre OSTs.
	LustreNoise bool
	// RealFrames makes producers encode genuine frame payloads and
	// consumers decode and verify them. Costly in host time; meant for
	// correctness tests and examples, not parameter sweeps.
	RealFrames bool
	// KeepProfiles retains per-process Caliper profiles on the Result for
	// Thicket analysis (Figures 9 and 10).
	KeepProfiles bool
	// DYADOverride optionally replaces the DYAD cost model — used by the
	// ablation study to disable individual DYAD mechanisms. Ignored for
	// other backends.
	DYADOverride *dyad.Params
	// ConsumerHeadStart delays every consumer process's start by this much
	// virtual time — the producer job's head start over the consumer job.
	// Real coarse-grained workflows routinely launch the producer first, so
	// the consumer's first-frame pipeline-fill wait (one production period
	// for DYAD's loose coupling) shrinks by the head start. The calibration
	// harness (internal/calib) fits this value against the paper's Figure
	// 5–7 consumption ratios. The delay is job-launch scheduling, not
	// measured production or consumption time: it appears as a detail span
	// (job_start_delay) and in no movement/idle column. Zero (the default)
	// is byte-identical to a build without the knob.
	ConsumerHeadStart time.Duration
	// SpecTune, when non-nil, adjusts the hardware profile after the
	// placement-derived CoronaProfile is built and before any device is
	// constructed — the calibration hook for perturbing cost-model
	// parameters (cluster.Spec.SetParam) without forking profiles. It must
	// be deterministic (a pure function of the spec) and cheap; it runs once
	// per run. Nil (the default) leaves the profile untouched.
	SpecTune func(*cluster.Spec)
	// ForceCoarseSync applies the traditional backends' coarse-grained,
	// serialized producer/consumer coupling to DYAD runs too. It isolates
	// the value of DYAD's loose coupling: with it set, DYAD keeps its fast
	// transport but loses the producer/consumer overlap.
	ForceCoarseSync bool
	// StragglerFactor, when > 1, degrades the SSD of compute node 0 (a
	// producer node) by that factor — fault injection for straggler
	// studies. It is 0 (off) or a finite value >= 1.
	StragglerFactor float64
	// Faults, when non-nil and enabled, derives a deterministic fault plan
	// from the spec and the run seed and injects it at scheduled virtual
	// times: device stalls/failures, link degradation/outages, DYAD broker
	// crashes, Lustre server outages (DESIGN.md §3d). Nil or a disabled
	// spec adds zero cost.
	Faults *faults.Spec
	// LustreFallback deploys a shared Lustre mirror next to a DYAD run:
	// producers write a second copy there and degraded consumers read it
	// when a producer's broker and staging device are both unreachable.
	// DYAD-only; adds the mirror's write cost to the production path.
	LustreFallback bool
	// Capacity, when non-nil and enabled, imposes finite burst-buffer
	// budgets on the node-local staging layers (DYAD NVMe staging + RAM
	// cache, or the XFS filesystem; Lustre has no node-local layer to
	// bound): frames are evicted under the spec's policy, spill to the
	// LustreFallback mirror when one is deployed, and producers feel
	// back-pressure when eviction cannot make room (DESIGN.md §3i). Nil or
	// a disabled spec (the default) keeps every budget infinite and the
	// timeline byte-identical to a build without the capacity layer.
	Capacity *capacity.Spec
	// MaxEvents / MaxVirtualTime arm the engine watchdog. Zero means
	// unlimited on healthy runs; fault-injected runs get generous defaults
	// so a livelocked recovery loop aborts instead of hanging the batch.
	MaxEvents      int64
	MaxVirtualTime time.Duration
	// RecordSpans enables the virtual-time span tracer: every modeled
	// operation (SSD I/O, transfers, RPCs, KVS ops, journal commits,
	// recovery waits) emits a span, surfaced on Result.Spans.
	// Spans are observations only — recording never touches the virtual
	// timeline or any RNG stream, so a traced run's measurements are
	// byte-identical to the same run untraced. Off (the default) costs one
	// nil check per operation and zero allocations.
	RecordSpans bool
	// CritPath enables the causal dependency-graph recorder: the sim kernel
	// records proc spawn/wake/block edges, the backends record write→read
	// tokens and per-frame provenance hops, and collect extracts the run's
	// critical path and frame lineages onto Result.Crit (DESIGN.md §3k).
	// Recording is observation-only — it never touches the virtual timeline
	// or any RNG stream, so a recorded run's measurements are byte-identical
	// to the same run unrecorded. Off (the default) costs one nil check per
	// hook site and zero allocations. Mutually exclusive with TraceStream
	// (flow-event merging needs buffered spans).
	CritPath bool
	// MetricsInterval, when > 0, attaches a virtual-time metrics registry
	// sampling every resource series at this fixed interval, surfaced on
	// Result.Metrics. Sampling is observation-only — probes read state
	// without scheduling events or drawing randomness, so a sampled run's
	// measurements are byte-identical to the same run unsampled and
	// independent of the worker count. Zero (the default) costs one nil
	// check per event and per instrumented operation.
	MetricsInterval time.Duration
	// TraceStream, when non-nil, streams the run's spans straight into a
	// shared Chrome trace writer instead of retaining them: each span is
	// serialized the moment it is emitted and Result.Spans stays nil —
	// recorder memory is O(live procs) regardless of run length. The bytes
	// written are identical to buffered RecordSpans export of the same run
	// (WriteChrome is a loop over the same stream). Mutually exclusive with
	// RecordSpans. The stream is not safe for concurrent runs: at most one
	// run per RunMany batch may set it (the experiments layer streams only
	// the first repetition, matching buffered tracing).
	TraceStream *trace.ChromeStream
	// RunLabel names the run's Chrome process in TraceStream, as buffered
	// collection names it (the experiments layer passes its sweep cell's
	// label). Empty means Label().
	RunLabel string
}

// EffectiveStride returns the configured stride, or the model's default.
func (c Config) EffectiveStride() int {
	if c.Stride > 0 {
		return c.Stride
	}
	return c.Model.Stride
}

// Frequency returns the nominal frame-generation period for this config.
func (c Config) Frequency() time.Duration {
	return c.Model.Frequency(c.EffectiveStride())
}

// ComputeNodes returns the number of compute nodes the placement needs.
func (c Config) ComputeNodes() int {
	if c.SingleNode {
		return 1
	}
	// Producers on one half, consumers on the other, 8 per node.
	perSide := (c.Pairs + MaxProcsPerNode - 1) / MaxProcsPerNode
	if perSide < 1 {
		perSide = 1
	}
	return 2 * perSide
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Backend < DYAD || c.Backend > Lustre {
		return fmt.Errorf("core: unknown backend %v", c.Backend)
	}
	if c.Pairs < 1 {
		return fmt.Errorf("core: pairs %d < 1", c.Pairs)
	}
	if c.Frames < 1 {
		return fmt.Errorf("core: frames %d < 1", c.Frames)
	}
	if c.Model.Atoms <= 0 || c.Model.StepsPerSecond <= 0 {
		return fmt.Errorf("core: model %q not initialized", c.Model.Name)
	}
	if c.Stride < 0 {
		return fmt.Errorf("core: stride %d < 0", c.Stride)
	}
	if c.SingleNode {
		if c.Backend == Lustre {
			return fmt.Errorf("core: Lustre is not a single-node configuration in this study")
		}
		if 2*c.Pairs > MaxProcsPerNode {
			return fmt.Errorf("core: %d pairs need %d processes, above the %d-per-node limit", c.Pairs, 2*c.Pairs, MaxProcsPerNode)
		}
	} else {
		if c.Backend == XFS {
			return fmt.Errorf("core: XFS cannot move data between nodes (paper §III-B); use SingleNode")
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if c.LustreFallback && c.Backend != DYAD {
		return fmt.Errorf("core: LustreFallback is a DYAD degraded-mode option; backend is %s", c.Backend)
	}
	if c.Capacity != nil {
		horizon := c.Frequency() * time.Duration(c.Frames)
		if err := c.Capacity.Validate(horizon); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if c.Capacity.Enabled() {
			if c.Backend == Lustre {
				return fmt.Errorf("core: Capacity bounds node-local staging; Lustre has none")
			}
			if c.Backend == XFS && c.Capacity.CacheBytes > 0 {
				return fmt.Errorf("core: Capacity.CacheBytes is a DYAD consumer-cache budget; backend is %s", c.Backend)
			}
		}
	}
	if !(c.ComputeJitter >= 0) || math.IsInf(c.ComputeJitter, 1) {
		return fmt.Errorf("core: ComputeJitter %v is not a finite value >= 0", c.ComputeJitter)
	}
	if f := c.StragglerFactor; f != 0 && (!(f >= 1) || math.IsInf(f, 1)) {
		return fmt.Errorf("core: StragglerFactor %v is neither 0 nor a finite value >= 1", f)
	}
	if c.ConsumerHeadStart < 0 {
		return fmt.Errorf("core: ConsumerHeadStart %v < 0", c.ConsumerHeadStart)
	}
	if c.MaxEvents < 0 {
		return fmt.Errorf("core: MaxEvents %d < 0", c.MaxEvents)
	}
	if c.MaxVirtualTime < 0 {
		return fmt.Errorf("core: MaxVirtualTime %v < 0", c.MaxVirtualTime)
	}
	if c.MetricsInterval < 0 {
		return fmt.Errorf("core: MetricsInterval %v < 0", c.MetricsInterval)
	}
	if c.TraceStream != nil && c.RecordSpans {
		return fmt.Errorf("core: TraceStream and RecordSpans are mutually exclusive (streamed spans are not retained)")
	}
	if c.CritPath && c.TraceStream != nil {
		return fmt.Errorf("core: CritPath and TraceStream are mutually exclusive (flow-event merging needs buffered spans)")
	}
	return nil
}

// Label renders a short configuration descriptor for reports.
func (c Config) Label() string {
	placement := "multi-node"
	if c.SingleNode {
		placement = "single-node"
	}
	label := fmt.Sprintf("%s/%s pairs=%d stride=%d frames=%d %s",
		c.Backend, c.Model.Name, c.Pairs, c.EffectiveStride(), c.Frames, placement)
	if c.StragglerFactor > 1 {
		label += fmt.Sprintf(" straggler=%gx", c.StragglerFactor)
	}
	return label
}
