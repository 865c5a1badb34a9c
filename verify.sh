#!/bin/sh
# verify.sh — the repo's full verification gate.
#
# Runs the tier-1 gate (build + tests) plus static vetting, the
# race-enabled suite that locks in the parallel runner's no-shared-state
# guarantee (see DESIGN.md §3b), stress loops, a fuzz smoke and a bench
# smoke. Output determinism at the quick protocol is checked in Go, by
# TestOutputDigests (cmd/experiments); the full protocol is checked here,
# against the committed results_full.txt. Referenced from ROADMAP.md.
set -eu

cd "$(dirname "$0")"

echo "== tier-1: go build ./... =="
go build ./...

echo "== line count: Go outside perfbench/ (prints only) =="
# Every change reports its net line count as the difference of these two
# numbers against its parent's. The benchmark harness (perfbench/) and its
# build directory are not counted. This stage prints and cannot fail.
go_files="$(find . \( -path ./perfbench -o -path ./.bench_build -o -path ./.git \) -prune -o -name '*.go' -print)"
echo "non-test Go lines: $(echo "$go_files" | grep -v '_test\.go$' | xargs cat | wc -l)"
echo "test Go lines:     $(echo "$go_files" | grep '_test\.go$' | xargs cat | wc -l)"

echo "== event count: one paper-figs iteration (prints only) =="
# The events the benchmark's paper-figs iteration fires, as
# TestRunEventBudget logs them; its per-figure pins are checked in the
# test stage. This stage prints and cannot fail.
go test -count=1 -run '^TestRunEventBudget$' -v ./internal/experiments 2>&1 |
	grep -o 'paper-figs iteration: [0-9]* events' || true

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

echo "== full protocol: experiments -reps 5 all equals results_full.txt =="
# results_full.txt is the report EXPERIMENTS.md quotes. TestOutputDigests
# runs only -quick, so this is the one check of the full-size sweeps (Fig 7
# at 256 pairs) and of their headline notes; it takes about 10 s. A failed
# run cuts the report short, so cmp catches that too.
go run ./cmd/experiments -q -reps 5 all | cmp - results_full.txt

echo "== go vet ./... =="
go vet ./...

echo "== go test -race ./... =="
# Under the detector TestOutputDigests runs each digest case's -j 8 leg
# against its pinned digests: every experiment, the fault and capacity
# matrices and the calibrate, search and explain reports, sinks on.
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

echo "== fuzz smoke: every committed fuzz target, briefly =="
# Tier-1 replays each target's committed seeds (testdata/fuzz); here each
# one also mutates for a few seconds. The targets are discovered, so a new
# one is fuzzed without editing this script. A find fails the gate, and go
# test writes the failing input under the package's testdata/fuzz for a
# regression seed.
fuzz_targets="$(go test -list '^Fuzz' ./... | awk '/^Fuzz/ { n[++k] = $1; next } $1 == "ok" { for (i = 1; i <= k; i++) print $2, n[i]; k = 0 }')"
if [ -z "$fuzz_targets" ]; then
	echo "go test -list found no fuzz targets"
	exit 1
fi
echo "$fuzz_targets" | while read -r pkg target; do
	echo "-- $target ($pkg)"
	go test -run '^$' -fuzz "^$target\$" -fuzztime 10s "$pkg"
done

echo "== bench smoke: go test -run=NONE -bench=. -benchtime=1x ./... =="
# One iteration of every benchmark: catches benchmarks that panic or hang
# without paying measurement time. Full measured runs live in bench.sh.
go test -run=NONE -bench=. -benchtime=1x ./...

echo "verify.sh: all gates passed"
