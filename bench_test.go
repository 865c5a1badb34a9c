package repro

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// Each benchmark regenerates one paper artifact end to end (reduced sweep:
// Quick options shrink frames/reps so a -bench run stays minutes-scale;
// cmd/experiments runs the full paper-faithful sweeps). The reported
// ns/op is the wall time to reproduce the artifact once.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	opts := experiments.Options{Quick: true, Reps: 2, Frames: 24}
	for i := 0; i < b.N; i++ {
		exp, err := experiments.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := exp.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		rep.Render(io.Discard)
	}
}

// BenchmarkTable1 regenerates Table I (molecular model characteristics).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates Table II (strides and frequencies).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig5 regenerates Figure 5 (single-node DYAD vs XFS, JAC).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6 (two-node DYAD vs Lustre, JAC).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7 (multi-node ensemble scaling).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (molecular model size scaling).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (Thicket call-tree analysis, DYAD).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (Thicket call-tree analysis, Lustre).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (frequency scaling, JAC).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12 (frequency scaling, STMV).
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkAblation regenerates the extension ablation study (per-DYAD-
// mechanism contribution).
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkWorkflowDYAD measures one raw DYAD workflow run (8 pairs, JAC)
// — the simulator's own throughput, useful when tuning the kernel.
func BenchmarkWorkflowDYAD(b *testing.B) {
	b.ReportAllocs()
	jac, err := ModelByName("JAC")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Backend: DYAD, Model: jac, Pairs: 8, Frames: 32, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkflowLustre measures one raw Lustre workflow run.
func BenchmarkWorkflowLustre(b *testing.B) {
	b.ReportAllocs()
	jac, err := ModelByName("JAC")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Backend: Lustre, Model: jac, Pairs: 8, Frames: 32, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkflowLargePairs measures a fleet-scale DYAD run: 1024
// producer-consumer pairs (2048 processes, 256 compute nodes), with over a
// thousand events pending in the kernel's event queue. This is the
// end-to-end view of the queue's scaling: the macro benchmark behind the
// micro-level BenchmarkScaleEvents.
func BenchmarkWorkflowLargePairs(b *testing.B) {
	b.ReportAllocs()
	jac, err := ModelByName("JAC")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Backend: DYAD, Model: jac, Pairs: 1024, Frames: 2, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepeatPooled measures RunMany over 8 repetitions on one worker —
// the pooled-reuse hot path: after the first repetition, engine, cluster,
// event-queue state and the backends' tables recycle across reps instead
// of being rebuilt.
func BenchmarkRepeatPooled(b *testing.B) {
	jac, err := ModelByName("JAC")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Backend: DYAD, Model: jac, Pairs: 8, Frames: 16, Seed: 1}
	benchPooled(b, func() error { _, err := core.RepeatWorkers(cfg, 8, 1); return err })
}

// BenchmarkEnsemblePooled is the perfbench ensemble-1024 workload's shape:
// two repetitions of a 1,024-pair DYAD run (2,048 processes) in one
// RunMany call on one worker, so the second reuses the first's pooled rig.
// Its gc-cycles/op shows what the run's garbage costs: every GC cycle
// scans the parked stacks of all 2,048 coroutines.
func BenchmarkEnsemblePooled(b *testing.B) {
	jac, err := ModelByName("JAC")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Backend: DYAD, Model: jac, Pairs: 1024, Frames: 4, Seed: 1, ComputeJitter: 0.004}
	benchPooled(b, func() error { _, err := core.RepeatWorkers(cfg, 2, 1); return err })
}

// BenchmarkObservedPooled is the perfbench observed workload's shape: the
// Fig 5/6 run set of exportRuns, spans, metrics and critical paths all
// on, one RunMany call per run, so after the first iteration each run
// takes a warm engine, the sample block it lends and the pooled
// recorders. Its B/op and allocs/op are what the sinks cost a warm run.
func BenchmarkObservedPooled(b *testing.B) {
	benchPooled(b, func() error { exportRuns(b); return nil })
}

// benchPooled times one pooled batch per iteration, reporting
// allocations and the GC cycles each batch set off (gc-cycles/op).
func benchPooled(b *testing.B, batch func() error) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		if err := batch(); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc-cycles/op")
}

// exportRuns runs the Fig 5 (one node, DYAD vs XFS, 1-4 pairs) and Fig 6
// (two nodes, DYAD vs Lustre, 1-8 pairs) sweeps at 32 frames per pair with
// spans, metrics and critical paths all recorded, and collects them the way
// cmd/experiments does — the run set the exporter benchmarks serialize.
func exportRuns(b *testing.B) (*TraceCollector, *MetricsCollector, *CritPathCollector) {
	b.Helper()
	jac, err := ModelByName("JAC")
	if err != nil {
		b.Fatal(err)
	}
	tc, mc, cc := NewTraceCollector(), NewMetricsCollector(), NewCritPathCollector()
	sweep := func(other Backend, pairs []int, single bool) {
		for _, p := range pairs {
			for _, be := range []Backend{DYAD, other} {
				cfg := Config{Backend: be, Model: jac, Pairs: p, Frames: 32, SingleNode: single, Seed: 1,
					ComputeJitter: 0.004, LustreNoise: be == Lustre,
					RecordSpans: true, MetricsInterval: mc.SampleInterval(), CritPath: true}
				res, err := RunMany([]Config{cfg}, 1)
				if err != nil {
					b.Fatal(err)
				}
				tc.Add(cfg.Label(), res)
				mc.Add(cfg.Label(), res)
				cc.Add(cfg.Label(), res)
			}
		}
	}
	sweep(XFS, []int{1, 2, 4}, true)
	sweep(Lustre, []int{1, 2, 4, 8}, false)
	return tc, mc, cc
}

// BenchmarkWriteChrome measures the Chrome trace export of the Fig 5/6 run
// set: spans, critical-path flow arrows and metrics counter tracks.
func BenchmarkWriteChrome(b *testing.B) {
	tc, _, _ := exportRuns(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, tc.Runs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteMetrics measures the metrics time-series CSV plus the
// Prometheus snapshot of the Fig 5/6 run set.
func BenchmarkWriteMetrics(b *testing.B) {
	_, mc, _ := exportRuns(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteMetricsCSV(io.Discard, mc.Runs); err != nil {
			b.Fatal(err)
		}
		if err := WriteMetricsProm(io.Discard, mc.Runs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteWaterfall measures the frame-provenance waterfall CSV of
// the Fig 5/6 run set.
func BenchmarkWriteWaterfall(b *testing.B) {
	_, _, cc := exportRuns(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cc.WriteWaterfall(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
