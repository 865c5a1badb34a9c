#!/bin/sh
# verify.sh — the repo's full verification gate.
#
# Runs the tier-1 gate (build + tests) plus static vetting and the
# race-enabled suite that locks in the parallel runner's no-shared-state
# guarantee (see DESIGN.md §3b). Referenced from ROADMAP.md.
set -eu

cd "$(dirname "$0")"

echo "== tier-1: go build ./... =="
go build ./...

echo "== gofmt: every Go file is formatted =="
# gofmt -l lists the files whose formatting differs; any listed file fails
# the gate. The benchmark's build directory holds no source of ours.
unformatted="$(gofmt -l . | grep -v '^\.bench_build/' || true)"
if [ -n "$unformatted" ]; then
	echo "gofmt -l lists unformatted files:"
	echo "$unformatted"
	exit 1
fi

echo "== tier-1: go test ./... =="
go test ./...

echo "== go vet ./... =="
go vet ./...

echo "== go test -race ./... =="
go test -race ./...

echo "== baton-handoff stress: sim exit paths x10 (race) =="
# Processes run on runtime coroutines that Run's goroutine resumes; a
# parking process runs the dispatch loop itself before it yields to that
# driver, and a finished process's coroutine is recycled by the next Spawn
# (DESIGN.md §3c). Engine state therefore moves between coroutine
# goroutines, so the failure, unwind, attribution, ordering and recycling
# paths run repeatedly under the race detector to shake out any switch
# that is not a happens-before edge. In core, the process-wide run pools
# keep engines and their idle coroutines across calls: the lifecycle test
# checks that failed runs release theirs, and the recycled-coroutine test
# that reuse changes no result.
go test -race -count=10 -timeout 300s -run 'Panic|Leak|Stranded|Drain|Crit|Watchdog|Ordering|Recycled|Lifecycle' ./internal/sim/
go test -race -count=10 -timeout 300s -run 'Recycled|Lifecycle|LockedThread' ./internal/core/

echo "== fault-matrix smoke: experiments faultsweep -quick (race) =="
# The injected-failure matrix must complete — every run either recovers or
# dies with a wrapped sentinel; no panics, hangs, or data races.
go run -race ./cmd/experiments -quick -q faultsweep

echo "== traced-sweep determinism: -trace at -j1 vs -j8 (race) =="
# Span tracing must be observation-only and worker-count-independent:
# the traced sweep's report and Chrome trace file are byte-identical for
# any -j, and the report without -trace matches the traced report's
# leading experiment table (DESIGN.md §3e).
TRACETMP="$(mktemp -d)"
trap 'rm -rf "$TRACETMP"' EXIT
go build -race -o "$TRACETMP/experiments" ./cmd/experiments
"$TRACETMP/experiments" -quick -q -j 1 -trace "$TRACETMP/t1.json" fig5 faultsweep > "$TRACETMP/out1.txt"
"$TRACETMP/experiments" -quick -q -j 8 -trace "$TRACETMP/t8.json" fig5 faultsweep > "$TRACETMP/out8.txt"
cmp "$TRACETMP/t1.json" "$TRACETMP/t8.json"
cmp "$TRACETMP/out1.txt" "$TRACETMP/out8.txt"

echo "== metrics determinism: -metrics/-metrics-prom at -j1 vs -j8 (race) =="
# Metrics sampling must be observation-only and worker-count-independent:
# the time-series CSV, the Prometheus snapshot, and the dashboard report
# are byte-identical for any -j, on clean (fig5) and faulted (faultsweep)
# seeds alike (DESIGN.md §3f).
"$TRACETMP/experiments" -quick -q -j 1 -metrics "$TRACETMP/m1.csv" -metrics-prom "$TRACETMP/p1.prom" fig5 faultsweep > "$TRACETMP/mout1.txt"
"$TRACETMP/experiments" -quick -q -j 8 -metrics "$TRACETMP/m8.csv" -metrics-prom "$TRACETMP/p8.prom" fig5 faultsweep > "$TRACETMP/mout8.txt"
cmp "$TRACETMP/m1.csv" "$TRACETMP/m8.csv"
cmp "$TRACETMP/p1.prom" "$TRACETMP/p8.prom"
cmp "$TRACETMP/mout1.txt" "$TRACETMP/mout8.txt"

echo "== capacity smoke: experiments capsweep -quick (race) =="
# The finite burst-buffer matrix must complete — every starved run either
# spills, stalls, or dies with a wrapped capacity sentinel; no panics,
# hangs, or data races (DESIGN.md §3i).
go run -race ./cmd/experiments -quick -q capsweep

echo "== capacity invisibility: capacities off are byte-identical at any -j =="
# With every capacity infinite (the default), the capacity layer must be
# invisible: the full quick sweep produces identical bytes serial and
# parallel. (The PR that introduced the capacity layer additionally
# checked these bytes against the preserved pre-PR binary via cmp; that
# binary is not archived in-repo, so the ongoing gate is cross-worker
# identity plus the golden fixtures, which pin the capacity-off timeline.)
"$TRACETMP/experiments" -quick -q -j 1 all > "$TRACETMP/cap_j1.txt"
"$TRACETMP/experiments" -quick -q -j 8 all > "$TRACETMP/cap_j8.txt"
cmp "$TRACETMP/cap_j1.txt" "$TRACETMP/cap_j8.txt"

echo "== head-start invisibility: default vs explicit -headstart 0 =="
# With the consumer head start off (the default), the knob must be
# invisible: a run with no -headstart flag and one with an explicit
# -headstart 0 produce identical bytes. (The PR that introduced the knob
# additionally checked these bytes against the preserved pre-PR binary at
# -j1 and -j8; that binary is not archived in-repo, so the
# ongoing gate is default-vs-explicit plus the golden fixtures.)
"$TRACETMP/experiments" -quick -q fig5 ablation > "$TRACETMP/hs_default.txt"
"$TRACETMP/experiments" -quick -q -headstart 0 fig5 ablation > "$TRACETMP/hs_zero.txt"
cmp "$TRACETMP/hs_default.txt" "$TRACETMP/hs_zero.txt"

echo "== calibration determinism: calibrate -j1 vs -j8 (race) =="
# The fit report must be byte-identical for any run-worker fan-out: same
# evaluations, same optimizer path, same fitted parameters
# (DESIGN.md §3j).
"$TRACETMP/experiments" -q -quick -reps 1 -frames 16 -budget 6 -j 1 calibrate > "$TRACETMP/cal_j1.txt"
"$TRACETMP/experiments" -q -quick -reps 1 -frames 16 -budget 6 -j 8 calibrate > "$TRACETMP/cal_j8.txt"
cmp "$TRACETMP/cal_j1.txt" "$TRACETMP/cal_j8.txt"

echo "== critpath determinism: explain + -critpath artifacts at -j1/-j8 (race) =="
# The causal-graph recorder must be worker-count-independent end to end:
# the differential critical-path report, the per-experiment blame reports,
# the frame-provenance waterfall CSV, and the flow-merged Chrome trace are
# byte-identical at any -j, on clean (fig5) and faulted
# (faultsweep) seeds alike (DESIGN.md §3k).
"$TRACETMP/experiments" -q -quick -reps 1 -frames 16 -j 1 explain fig5 fig6 > "$TRACETMP/ex_j1.txt"
"$TRACETMP/experiments" -q -quick -reps 1 -frames 16 -j 8 explain fig5 fig6 > "$TRACETMP/ex_j8.txt"
cmp "$TRACETMP/ex_j1.txt" "$TRACETMP/ex_j8.txt"
"$TRACETMP/experiments" -quick -q -j 1 -critpath "$TRACETMP/wf1.csv" -trace "$TRACETMP/ct1.json" fig5 faultsweep > "$TRACETMP/crep1.txt"
"$TRACETMP/experiments" -quick -q -j 8 -critpath "$TRACETMP/wf8.csv" -trace "$TRACETMP/ct8.json" fig5 faultsweep > "$TRACETMP/crep8.txt"
cmp "$TRACETMP/crep1.txt" "$TRACETMP/crep8.txt"
cmp "$TRACETMP/wf1.csv" "$TRACETMP/wf8.csv"
cmp "$TRACETMP/ct1.json" "$TRACETMP/ct8.json"

echo "== critpath invisibility: recording is observation-only =="
# Recording must not perturb the simulation: dropping the -critpath blame
# sections from a recorded run's report yields byte-for-byte the plain
# run's report — every measured number is identical. (The PR that
# introduced the recorder additionally checked the recorder-off sweep
# against the preserved pre-PR binary via cmp; that binary is not archived
# in-repo, so recorder-off bytes stay pinned by the capacity-invisibility
# stage's cross-worker cmp over `all` plus the golden fixtures.)
awk '/^== [a-z0-9]+-critpath /{skip=1; next} /^== /{skip=0} !skip' "$TRACETMP/crep1.txt" > "$TRACETMP/crep1_filtered.txt"
cmp "$TRACETMP/out1.txt" "$TRACETMP/crep1_filtered.txt"

echo "== zero-alloc gate: tracing/metrics/capacity-off allocation budget =="
# The span-tracer, metrics hooks, and capacity layer must be free when
# disabled: the delta tests scale event/op counts ~100x and require zero
# extra allocations; the sim delta tests run each event inside
# sim.Proc.Region phases, so the region primitive is covered with every
# sink off. The core budget pins the per-run allocation count of
# a Fig5-shaped DYAD, XFS and Lustre run with every sink off; cleaning a
# canonical path, a steady lock/unlock cycle and a warmed process
# profile's restart and region cycle allocate nothing. The
# export budgets (trace, metrics, critpath) require the Chrome,
# CSV/Prometheus and waterfall writers to allocate no more for 8x the
# events (run without -race; race instrumentation allocates).
go test -run 'ZeroAllocs|AllocBudget' -count=1 ./internal/sim/ ./internal/cluster/ ./internal/metrics/ ./internal/capacity/ ./internal/core/ ./internal/trace/ ./internal/critpath/ ./internal/vfs/ ./internal/locks/ ./internal/caliper/

echo "== fuzz smoke: every committed fuzz target, briefly =="
# Tier-1 replays each target's committed seeds (testdata/fuzz); here each
# one also mutates for a few seconds. A find fails the gate, and go test
# writes the failing input under the package's testdata/fuzz for a
# regression seed.
go test -run '^$' -fuzz '^FuzzClean$' -fuzztime 10s ./internal/vfs
go test -run '^$' -fuzz '^FuzzChromeEvent$' -fuzztime 10s ./internal/trace
go test -run '^$' -fuzz '^FuzzAnnotator$' -fuzztime 10s ./internal/caliper
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/frame
go test -run '^$' -fuzz '^FuzzEventQueue$' -fuzztime 10s ./internal/sim

echo "== bench smoke: go test -run=NONE -bench=. -benchtime=1x ./... =="
# One iteration of every benchmark: catches benchmarks that panic or hang
# without paying measurement time. Full measured runs live in bench.sh.
go test -run=NONE -bench=. -benchtime=1x ./...

echo "verify.sh: all gates passed"
