#!/bin/sh
# bench.sh — measured benchmark run, printed to stdout.
#
# Runs the kernel microbenchmarks (the region hooks among them), each
# hand-written kernel chain (wire, file op, noise) beside its blocking
# reference loop (the /ref rows), the
# end-to-end figure benchmarks the perf acceptance criteria track, and the
# trace/metrics/waterfall export benchmarks, six samples each (-count 6),
# so ns/op, B/op and allocs/op come with a spread. Compare two runs with benchstat, if installed.
# perfbench/ carries the end-to-end history.
#
# Usage:
#   ./bench.sh > new.txt
set -eu

cd "$(dirname "$0")"

run() {
	go test -run=NONE -count 6 "$@"
}

run -bench='BenchmarkSleepEvents|BenchmarkManyProcs|BenchmarkWakeBlock|BenchmarkHeapChurn10k|BenchmarkResourceContention|BenchmarkRegion' \
	-benchtime=200000x ./internal/sim/
run -bench='BenchmarkScaleEvents' -benchtime=100000x ./internal/sim/
run -bench='BenchmarkTransferFanIn' -benchtime=2000x ./internal/cluster/
run -bench='BenchmarkLustreFileOps|BenchmarkLustreNoise' -benchtime=2000x ./internal/lustre/
run -bench='BenchmarkCapacityEvict' -benchtime=200000x ./internal/capacity/
run -bench='BenchmarkCalibrateEval' -benchtime=2x ./internal/calib/
run -bench='BenchmarkCritpathExtract' -benchtime=20000x ./internal/critpath/
run -bench='BenchmarkProvenanceRecord' -benchtime=500x ./internal/critpath/
run -bench='BenchmarkFig5$|BenchmarkFig6$|BenchmarkWorkflowLargePairs$|BenchmarkRepeatPooled$' -benchtime=2x .
run -bench='BenchmarkWriteChrome$|BenchmarkWriteMetrics$|BenchmarkWriteWaterfall$' -benchtime=20x .
