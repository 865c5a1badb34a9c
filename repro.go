// Package repro is the public API of this reproduction of "Empirical Study
// of Molecular Dynamics Workflow Data Movement: DYAD vs. Traditional I/O
// Systems" (IPPS 2024).
//
// It exposes three layers:
//
//   - Workflow runs: configure and execute one MD-inspired
//     producer/consumer workflow over a simulated HPC cluster with the
//     DYAD, XFS, or Lustre data-management backend, and obtain the paper's
//     time decomposition (data movement vs idle) for producers and
//     consumers. Independent runs and repetitions fan out across a worker
//     pool with deterministic (worker-count-independent) results. See Run,
//     Repeat, RunMany, and Aggregated.
//
//   - Paper experiments: regenerate any table or figure of the paper's
//     evaluation with Experiments / RunExperiment.
//
//   - Workload building blocks: the Table I/II molecular model registry
//     (Models, ModelByName) and the frame wire format, for composing
//     custom studies.
//
// The runnable programs in cmd/ and examples/ are thin wrappers over this
// package.
package repro

import (
	"io"

	"repro/internal/calib"
	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/trace"
)

// Backend selects the data management solution of a workflow run.
type Backend = core.Backend

// The three data management solutions of the study.
const (
	DYAD   = core.DYAD
	XFS    = core.XFS
	Lustre = core.Lustre
)

// ParseBackend parses "DYAD", "XFS", or "Lustre".
func ParseBackend(s string) (Backend, error) { return core.ParseBackend(s) }

// Config describes one workflow run; see core.Config for field semantics.
type Config = core.Config

// Result is the measurement of one workflow run.
type Result = core.Result

// Totals is a movement/idle time decomposition.
type Totals = core.Totals

// Aggregate summarizes repeated runs.
type Aggregate = core.Aggregate

// Model describes a molecular model (Table I).
type Model = models.Model

// FaultSpec configures deterministic fault injection for a run; attach one
// to Config.Faults. See faults.Spec for field semantics.
type FaultSpec = faults.Spec

// FaultEvent is one explicit injected fault (Config.Faults.Events).
type FaultEvent = faults.Event

// RecoveryMetrics counts injected faults and the recovery work they
// caused; every Result carries one (Result.Recovery).
type RecoveryMetrics = faults.Metrics

// Fault sentinels: errors surfaced by injected failures are errors.Is-able
// against these.
var (
	ErrDeviceFailed = faults.ErrDeviceFailed
	ErrTimeout      = faults.ErrTimeout
	ErrBrokerDown   = faults.ErrBrokerDown
	ErrLinkDown     = faults.ErrLinkDown
	ErrExhausted    = faults.ErrExhausted
)

// CapacitySpec bounds the burst buffer for a run; attach one to
// Config.Capacity. The zero value (or a nil pointer) means infinite
// capacity and leaves every timeline byte-identical to a build without the
// capacity layer. See capacity.Spec for field semantics.
type CapacitySpec = capacity.Spec

// CapacityProvision is one scheduled capacity change (CapacitySpec.Plan).
type CapacityProvision = capacity.Provision

// CapacityMetrics counts evictions, spills, drops, and back-pressure
// stalls; every Result carries one (Result.Capacity).
type CapacityMetrics = capacity.Metrics

// Eviction policy names for CapacitySpec.Policy.
const (
	PolicyLRU          = capacity.PolicyLRU
	PolicyConsumedDrop = capacity.PolicyConsumedDrop
)

// Capacity sentinels: a write that cannot fit even after evicting returns
// an error chain wrapping ErrNoSpace; a read of an evicted-and-unspilled
// frame wraps ErrEvicted (possibly via ErrExhausted after the degraded-read
// ladder).
var (
	ErrNoSpace = capacity.ErrNoSpace
	ErrEvicted = capacity.ErrEvicted
)

// Run executes one workflow run.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// Repeat runs cfg reps times with distinct seeds, in parallel across one
// worker per available core. Results are deterministic: identical to
// serial execution for any worker count. Like RunMany, it keeps its
// workers' engines pooled until ReleasePools.
func Repeat(cfg Config, reps int) ([]*Result, error) { return core.Repeat(cfg, reps) }

// RunMany executes independent workflow runs across a worker pool,
// preserving input order and collecting every run's error instead of
// aborting the batch on the first. Its workers reuse engines from
// process-wide pools, which keep one parked goroutine per process of the
// largest run each pool served until ReleasePools. See core.RunMany.
func RunMany(cfgs []Config, workers int) ([]*Result, error) { return core.RunMany(cfgs, workers) }

// ReleasePools frees the engines that RunMany and Repeat keep pooled
// between calls, with their parked goroutines. Later calls build new ones.
func ReleasePools() { core.ReleasePools() }

// Aggregated summarizes repeated results of one configuration.
func Aggregated(results []*Result) Aggregate { return core.Aggregated(results) }

// Models returns the paper's molecular model registry (Table I order).
func Models() []Model { return models.Registry() }

// ModelByName looks up a model ("JAC", "ApoA1", "F1 ATPase", "STMV").
func ModelByName(name string) (Model, error) { return models.ByName(name) }

// CustomModel builds a user-defined molecular model. A zero stride derives
// one matching the paper's ~0.82 s frame-generation frequency.
func CustomModel(name string, atoms int, stepsPerSecond float64, stride int) (Model, error) {
	return models.Custom(name, atoms, stepsPerSecond, stride)
}

// TraceSpan is one virtual-time span of a traced run (Result.Spans when
// Config.RecordSpans is set). See trace.Span for field semantics.
type TraceSpan = trace.Span

// TraceRun pairs a label with one run's span stream for Chrome export.
type TraceRun = trace.Run

// WriteChromeTrace serializes traced runs as a Chrome trace-event JSON
// document (loadable in Perfetto / chrome://tracing). Output is
// byte-deterministic for deterministic span streams, and valid JSON for
// any span, label or counter value.
func WriteChromeTrace(w io.Writer, runs []TraceRun) error { return trace.WriteChrome(w, runs) }

// TraceCollector accumulates traced runs and paper-style time-breakdown
// rows across experiments; attach one via ExperimentOptions.Trace.
type TraceCollector = experiments.Collector

// NewTraceCollector returns an empty trace collector.
func NewTraceCollector() *TraceCollector { return experiments.NewCollector() }

// ChromeTraceStream is an incremental Chrome trace writer: runs attached to
// it (Config.TraceStream, ExperimentOptions.TraceStream) serialize each
// span the moment it is emitted instead of retaining it, keeping tracing
// memory bounded on arbitrarily long runs. Bytes are identical to buffered
// collection followed by WriteChromeTrace, except that a run killed
// mid-sweep (by a fault or capacity kill) leaves its partial block in the
// stream, which buffered collection drops. Close finishes the document.
type ChromeTraceStream = trace.ChromeStream

// NewChromeTraceStream starts a Chrome trace-event JSON document on w.
func NewChromeTraceStream(w io.Writer) *ChromeTraceStream { return trace.NewChromeStream(w) }

// MetricsRegistry is a run's sampled virtual-time metrics (Result.Metrics
// when Config.MetricsInterval is set). See metrics.Registry.
type MetricsRegistry = metrics.Registry

// MetricsRun pairs a label with one run's sampled registry for export.
type MetricsRun = metrics.Run

// WriteMetricsCSV serializes sampled runs as time-series CSV (one block
// per run, registration-order columns). Byte-deterministic.
func WriteMetricsCSV(w io.Writer, runs []MetricsRun) error { return metrics.WriteCSV(w, runs) }

// WriteMetricsProm serializes an end-of-run snapshot of sampled runs in
// Prometheus text exposition format. Byte-deterministic.
func WriteMetricsProm(w io.Writer, runs []MetricsRun) error { return metrics.WriteProm(w, runs) }

// MetricsCollector accumulates sampled runs and utilization-dashboard rows
// across experiments; attach one via ExperimentOptions.Metrics.
type MetricsCollector = experiments.MetricsCollector

// NewMetricsCollector returns an empty metrics collector.
func NewMetricsCollector() *MetricsCollector { return experiments.NewMetricsCollector() }

// CritPath is one run's extracted critical path: the gating chain's blame
// totals per labeled region and class, the synchronization waits it flowed
// through, and near-critical slack statistics (Result.Crit.Path when
// Config.CritPath is set). See critpath.CritPath.
type CritPath = critpath.CritPath

// FrameLineage is one frame's provenance record: every hop the payload
// took from production to consumption (Result.Crit.Frames).
type FrameLineage = critpath.FrameLineage

// CritSummary bundles a run's critical path and frame lineages
// (Result.Crit when Config.CritPath is set).
type CritSummary = critpath.Summary

// ExplainDiff is an edge-by-edge differential of two runs' critical paths:
// every makespan-gap contribution attributed to a named graph edge.
type ExplainDiff = critpath.ExplainDiff

// DiffCritPaths diffs two extracted critical paths edge-by-edge.
func DiffCritPaths(labelA string, a *CritPath, labelB string, b *CritPath) *ExplainDiff {
	return critpath.Diff(labelA, a, labelB, b)
}

// CritPathCollector accumulates critical-path summaries and blame rows
// across experiments; attach one via ExperimentOptions.CritPath.
type CritPathCollector = experiments.CritCollector

// NewCritPathCollector returns an empty critical-path collector.
func NewCritPathCollector() *CritPathCollector { return experiments.NewCritCollector() }

// ExplainBackends runs one explain workload ("fig5": DYAD vs XFS
// single-node, "fig6": DYAD vs Lustre two-node) with critical-path
// recording on both sides and returns the differential blame report.
func ExplainBackends(target string, o ExperimentOptions) (*ExperimentReport, error) {
	return experiments.Explain(target, o)
}

// ExplainWorkload is one workload ExplainBackends can diff.
type ExplainWorkload = experiments.ExplainTarget

// ExplainWorkloads lists the available explain workloads.
func ExplainWorkloads() []ExplainWorkload { return experiments.ExplainTargets() }

// ExplainWorkloadByID returns the explain workload with the given id, or
// an error listing every valid id.
func ExplainWorkloadByID(id string) (ExplainWorkload, error) {
	return experiments.ExplainTargetByID(id)
}

// ExperimentOptions tune paper-experiment execution.
type ExperimentOptions = experiments.Options

// ExperimentReport is a rendered experiment.
type ExperimentReport = experiments.Report

// Experiments lists the reproducible paper artifacts in paper order.
func Experiments() []experiments.Experiment { return experiments.All() }

// ExperimentByID returns the experiment with the given id, or an error
// listing every valid id.
func ExperimentByID(id string) (experiments.Experiment, error) { return experiments.ByID(id) }

// RunExperiment regenerates one paper table or figure by id ("table1",
// "table2", "fig5" ... "fig12").
func RunExperiment(id string, o ExperimentOptions) (*ExperimentReport, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(o)
}

// RenderReport writes a report as an aligned text table.
func RenderReport(w io.Writer, r *ExperimentReport) { r.Render(w) }

// CalibSpace is the set of cost-model parameters a calibration may move;
// CalibParam is one bounded dimension of it. See calib.Space.
type (
	CalibSpace = calib.Space
	CalibParam = calib.Param
)

// CalibOptions tune a calibration or scenario-search run.
type CalibOptions = calib.Options

// CalibFit is a completed calibration: fitted parameters, objective, and
// the measurements backing them. Render writes the deterministic fit
// report (byte-identical at any worker count).
type CalibFit = calib.Fit

// CalibTarget is one published paper number the objective fits toward.
type CalibTarget = calib.Target

// CalibGoal is one scenario-search predicate.
type CalibGoal = calib.Goal

// DefaultCalibSpace brackets every tunable cost-model parameter around
// its current default.
func DefaultCalibSpace() CalibSpace { return calib.DefaultSpace() }

// Calibrate fits space against the paper's Tables I–II and Figs 5–7
// headline numbers; deterministic for any worker count.
func Calibrate(space CalibSpace, o CalibOptions) (*CalibFit, error) {
	return calib.Calibrate(space, o)
}

// CalibTargets returns the paper-number fixture the objective fits
// against (full adds Fig 7).
func CalibTargets(full bool) []CalibTarget { return calib.Targets(full) }

// CalibGoals lists the scenario-search predicates.
func CalibGoals() []CalibGoal { return calib.Goals() }

// CalibGoalByID returns the scenario-search predicate with the given id,
// or an error listing every valid id.
func CalibGoalByID(id string) (CalibGoal, error) { return calib.GoalByID(id) }

// RunCalibGoal runs one scenario search by goal id and returns its
// report.
func RunCalibGoal(id string, o CalibOptions) (*ExperimentReport, error) {
	return calib.RunGoal(id, o)
}
