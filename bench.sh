#!/bin/sh
# bench.sh — measured benchmark run recorded into a JSON ledger.
#
# Runs the kernel microbenchmarks, the end-to-end figure benchmarks the
# perf acceptance criteria track, and the trace/metrics/waterfall export
# benchmarks, and merges ns/op, B/op, and allocs/op into BENCH_PR10.json
# under the given label (default: "current"). With a baseline label
# already present in the ledger, benchrec prints deltas.
#
# Usage:
#   ./bench.sh            # record under label "current"
#   ./bench.sh mylabel    # record under "mylabel"
set -eu

cd "$(dirname "$0")"

LABEL="${1:-current}"
LEDGER="BENCH_PR10.json"

go build -o /tmp/benchrec ./cmd/benchrec

{
	go test -run=NONE -bench='BenchmarkSleepEvents|BenchmarkManyProcs|BenchmarkWakeBlock|BenchmarkHeapChurn10k|BenchmarkResourceContention' \
		-benchtime=200000x ./internal/sim/
	go test -run=NONE -bench='BenchmarkScaleEvents' -benchtime=100000x ./internal/sim/
	go test -run=NONE -bench='BenchmarkCapacityEvict' -benchtime=200000x ./internal/capacity/
	go test -run=NONE -bench='BenchmarkCalibrateEval' -benchtime=2x ./internal/calib/
	go test -run=NONE -bench='BenchmarkCritpathExtract' -benchtime=20000x ./internal/critpath/
	go test -run=NONE -bench='BenchmarkProvenanceRecord' -benchtime=500x ./internal/critpath/
	go test -run=NONE -bench='BenchmarkFig5$|BenchmarkFig6$|BenchmarkWorkflowLargePairs$|BenchmarkRepeatPooled$' -benchtime=2x .
	go test -run=NONE -bench='BenchmarkWriteChrome$|BenchmarkWriteMetrics$|BenchmarkWriteWaterfall$' -benchtime=20x .
} | tee /dev/stderr | /tmp/benchrec -label "$LABEL" -o "$LEDGER"

echo "bench.sh: recorded under label \"$LABEL\" in $LEDGER"
