package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/critpath"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the parallel execution layer for workflow runs. Every run is
// a fully self-contained single-threaded simulation — it owns its engine,
// cluster, backend, and RNG streams — so independent runs can execute on
// separate OS threads without any coordination, and a parallel batch is
// byte-identical to a serial one. The paper's evaluation is an ensemble
// study (10 repetitions x many configurations), which makes fanning runs
// across cores the dominant wall-clock win for regenerating it.

// DefaultWorkers is the worker count RunMany uses when workers <= 0: the
// number of OS threads available to the process.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// RunMany executes every configuration, fanning the independent runs
// across workers goroutines (workers <= 0 means DefaultWorkers).
//
// The output slice preserves input order: results[i] is cfgs[i]'s result,
// or nil if that run failed. Unlike a serial loop, a failing run does not
// abort the batch — every run executes, and the returned error joins every
// per-run error (each prefixed with its batch index). Results are
// deterministic: each run owns its engine and RNG streams, so the worker
// count affects only wall-clock time, never measurements.
//
// Each worker draws its rig state from the process-wide run pools
// (runPools), which keep their engines between calls: one parked
// goroutine, the idle coroutine of a process, per process of the largest
// run a pool has served, until ReleasePools. Runs execute on goroutines
// RunMany starts, even at workers == 1, never on the caller's: a
// coroutine must be resumed in the OS-thread locking state it was created
// in, so a caller under runtime.LockOSThread must not drive a pooled
// engine.
func RunMany(cfgs []Config, workers int) ([]*Result, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := getRunPool()
			defer putRunPool(pool)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				results[i], errs[i] = runIndexed(i, cfgs[i], pool)
			}
		}()
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// runPool recycles the expensive parts of a rig — engine (event queue,
// process table, RNG streams, idle process coroutines, per-process region
// tables), cluster (nodes, device resources, queue backing arrays), and
// the buffered span and critical-path recorders (span, segment and edge arrays) — from each run
// it serves to the next, across calls (runPools). Batch
// repetitions share shape, so after the first run a repetition allocates
// O(1) rig state instead of rebuilding the whole kernel (DESIGN.md §3h).
// A pool serves one caller at a time (never shared), and reuse is
// observationally invisible:
// Engine.Reset, Cluster.Reset and the recorders' Reset
// restore the exact just-built state, so pooled batches stay
// byte-identical to unpooled ones. Each recorder stays at the size of the
// largest run it recorded until ReleasePools; a Result gets copies of
// what it keeps (collect).
//
// Hand-out is one-shot: take clears what it hands out, and a run retires
// its rig whenever its engine unwound every process, failed or not: the
// next take resets the engine, cluster and recorders (a reset resource
// drops a killed run's waiters), so even a killed run leaks no state into
// the next. A run whose engine could not unwind — a panic escaped, or a
// process stayed live — closes the engine instead (rig.run), releasing
// the coroutines it retains. A recorder the run did not ask for stays in
// the pool for a later run that does.

type runPool struct {
	eng    *sim.Engine
	cl     *cluster.Cluster
	clSpec cluster.Spec
	rec    *trace.Recorder // buffered only: streaming recorders are per run
	cp     *critpath.Recorder
}

// runPools is the process-wide free list of run pools. Every RunMany
// worker takes a pool from it and puts it back when done, so an engine,
// its cluster and its idle coroutines survive from one call to the next:
// a sweep makes one RunMany call per figure point, and every process of a
// run is spawned before any exits, so coroutines are only ever reused
// across runs. The list holds as many pools as workers ever ran at once.
var runPools struct {
	sync.Mutex
	free []*runPool
}

// ReleasePools empties the process-wide run pools, closing their engines
// so that their idle coroutines exit; the rest is left to the garbage
// collector. Pools in use by a running RunMany go back to the list when
// it returns, and later calls build new pools. Call it when a process is
// done running simulations but lives on.
func ReleasePools() {
	runPools.Lock()
	free := runPools.free
	runPools.free = nil
	runPools.Unlock()
	for _, pl := range free {
		if pl.eng != nil {
			pl.eng.Close()
		}
	}
}

// getRunPool takes a pool from the free list, or a new one.
func getRunPool() *runPool {
	runPools.Lock()
	defer runPools.Unlock()
	n := len(runPools.free)
	if n == 0 {
		return &runPool{}
	}
	pl := runPools.free[n-1]
	runPools.free[n-1] = nil
	runPools.free = runPools.free[:n-1]
	return pl
}

// putRunPool returns pl to the free list.
func putRunPool(pl *runPool) {
	runPools.Lock()
	runPools.free = append(runPools.free, pl)
	runPools.Unlock()
}

// take hands out pooled state compatible with r's config into r, leaving
// nils where the pool cannot help. The engine is always reusable; the
// cluster additionally needs the same hardware spec (Spec is a value type,
// so == compares the full profile) and always rides on its own engine.
// Each recorder goes only to a run that records into it. Nil-safe.
func (pl *runPool) take(r *rig, spec cluster.Spec) {
	if pl == nil {
		return
	}
	if pl.eng != nil {
		r.eng = pl.eng
		r.eng.Reset(r.cfg.Seed)
		if pl.cl != nil && pl.clSpec == spec {
			r.cl = pl.cl
			r.cl.Reset()
		}
	}
	pl.eng, pl.cl = nil, nil
	if r.cfg.RecordSpans && pl.rec != nil {
		r.rec, pl.rec = pl.rec, nil
		r.rec.Reset()
	}
	if r.cfg.CritPath && pl.cp != nil {
		r.cp, pl.cp = pl.cp, nil
		r.cp.Reset()
	}
}

// retire stores a finished rig's state for the next take. The span
// recorder is kept only when it buffered.
func (pl *runPool) retire(r *rig) {
	if pl == nil {
		return
	}
	pl.eng = r.eng
	pl.cl = r.cl
	pl.clSpec = r.cl.Spec
	if r.cfg.RecordSpans {
		pl.rec = r.rec
	}
	if r.cp != nil {
		pl.cp = r.cp
	}
}

// runPooled is Run with an optional state pool.
func runPooled(cfg Config, pool *runPool) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newRig(cfg, pool).run(pool)
}

// run spawns the workflow, runs it and collects its result. The rig goes
// back to pool whenever the engine unwound every process, so a killed run
// keeps its engine, cluster and recorders for the next; when a panic
// escapes or a process stays live, run closes the engine instead, whose
// idle coroutines would otherwise outlive it.
func (r *rig) run(pool *runPool) (res *Result, err error) {
	retired := false
	defer func() {
		if !retired {
			r.eng.Close()
		}
	}()
	r.spawnAll()
	if err = r.eng.Run(); err != nil {
		err = fmt.Errorf("core: %s: %w", r.cfg.Label(), err)
	} else {
		res, err = r.collect()
	}
	if r.eng.Live() == 0 {
		pool.retire(r)
		retired = true
	}
	return res, err
}

// runIndexed runs one batch entry, tagging errors with the batch index and
// converting panics into errors so one broken run cannot take down the
// workers of an otherwise healthy batch. A panicked run retires nothing,
// so the pool stays clean.
func runIndexed(i int, cfg Config, pool *runPool) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("core: run %d (%s): panic: %v", i, cfg.Label(), r)
		}
	}()
	res, err = runPooled(cfg, pool)
	if err != nil {
		return nil, fmt.Errorf("core: run %d: %w", i, err)
	}
	return res, nil
}

// RepeatConfigs expands cfg into reps copies with the repetition seed
// schedule (seed + i*golden-ratio increment) — the same schedule Repeat and
// RepeatWorkers use. Callers that need to adjust individual repetitions
// (e.g. enable span tracing on one) can edit the slice before RunMany.
func RepeatConfigs(cfg Config, reps int) []Config {
	return AppendRepeats(make([]Config, 0, reps), cfg, reps)
}

// AppendRepeats appends RepeatConfigs(cfg, reps) to dst, so a sweep can
// lay every configuration's repetitions into one batch.
func AppendRepeats(dst []Config, cfg Config, reps int) []Config {
	for i := 0; i < reps; i++ {
		dst = append(dst, cfg)
		dst[len(dst)-1].Seed = cfg.Seed + uint64(i)*0x9e3779b9
	}
	return dst
}

// RepeatWorkers runs cfg reps times with distinct seeds, fanning the
// repetitions across workers goroutines (workers <= 0 means
// DefaultWorkers). Seeds and therefore results are identical to serial
// execution for any worker count.
func RepeatWorkers(cfg Config, reps, workers int) ([]*Result, error) {
	if reps < 1 {
		return nil, fmt.Errorf("core: reps %d < 1", reps)
	}
	return RunMany(RepeatConfigs(cfg, reps), workers)
}
