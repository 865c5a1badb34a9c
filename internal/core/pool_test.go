package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/caliper"
	"repro/internal/capacity"
	"repro/internal/critpath"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// resultScalars compares the measurement-bearing fields of two results.
func resultScalars(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Producer != want.Producer || got.Consumer != want.Consumer ||
		got.Makespan != want.Makespan || got.FramesRead != want.FramesRead ||
		got.BytesRead != want.BytesRead || got.Recovery != want.Recovery {
		t.Errorf("%s: pooled result diverged:\n got  %+v %+v %v\n want %+v %+v %v",
			what, got.Producer, got.Consumer, got.Makespan,
			want.Producer, want.Consumer, want.Makespan)
	}
}

// Pooled reuse must actually reuse (same engine and cluster pointers come
// back from the pool) and must be observationally invisible: every
// measurement of a pooled repetition equals the same config run fresh.
func TestPooledReuseIsInvisible(t *testing.T) {
	for _, backend := range []Backend{DYAD, XFS, Lustre} {
		cfg := Config{Backend: backend, Model: tinyModel(), Frames: 6, Pairs: 2,
			SingleNode: backend != Lustre, Seed: 7}
		if backend == Lustre {
			cfg.LustreNoise = true
		}
		pool := &runPool{}
		first, err := runPooled(cfg, pool)
		if err != nil {
			t.Fatalf("%s: first pooled run: %v", backend, err)
		}
		if pool.eng == nil || pool.cl == nil {
			t.Fatalf("%s: pool empty after successful run", backend)
		}
		eng, cl := pool.eng, pool.cl

		cfg2 := cfg
		cfg2.Seed = cfg.Seed + 0x9e3779b9
		second, err := runPooled(cfg2, pool)
		if err != nil {
			t.Fatalf("%s: second pooled run: %v", backend, err)
		}
		if pool.eng != eng {
			t.Errorf("%s: engine not reused (pool holds a different engine)", backend)
		}
		if pool.cl != cl {
			t.Errorf("%s: cluster not reused (pool holds a different cluster)", backend)
		}

		// The same configs run fresh (nil pool) must measure identically.
		fresh1, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", backend, err)
		}
		fresh2, err := Run(cfg2)
		if err != nil {
			t.Fatalf("%s: fresh run 2: %v", backend, err)
		}
		resultScalars(t, backend.String()+" rep1", first, fresh1)
		resultScalars(t, backend.String()+" rep2", second, fresh2)
	}
}

// A spec change mid-batch (different node count) must fall back to a fresh
// cluster without disturbing results, while the engine is still reused.
func TestPoolShapeMismatchFallsBack(t *testing.T) {
	pool := &runPool{}
	single := Config{Backend: DYAD, Model: tinyModel(), Frames: 4, Pairs: 2, SingleNode: true, Seed: 3}
	multi := Config{Backend: DYAD, Model: tinyModel(), Frames: 4, Pairs: 2, Seed: 3}
	if _, err := runPooled(single, pool); err != nil {
		t.Fatal(err)
	}
	eng := pool.eng
	got, err := runPooled(multi, pool)
	if err != nil {
		t.Fatal(err)
	}
	if pool.eng != eng {
		t.Error("engine should survive a cluster-spec change")
	}
	want, err := Run(multi)
	if err != nil {
		t.Fatal(err)
	}
	resultScalars(t, "spec change", got, want)
}

// The pooling payoff (DESIGN.md §3h): after the first repetition warms the
// pool, wiring the next repetition's rig allocates O(1) — the engine (event
// queue, proc table, RNG streams) and the cluster (nodes, device
// resources, queue arrays) come back from the pool instead of being
// rebuilt. Measured on the rig construction path itself so the bound is
// independent of how much the workflow body allocates.
func TestPooledRigConstructionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation budget checked without -race")
	}
	cfg := Config{Backend: DYAD, Model: tinyModel(), Frames: 2, Pairs: 16, Seed: 11}
	fresh := testing.AllocsPerRun(10, func() { _ = newRig(cfg, nil) })
	pool := &runPool{}
	if _, err := runPooled(cfg, pool); err != nil {
		t.Fatal(err)
	}
	pooled := testing.AllocsPerRun(10, func() {
		r := newRig(cfg, pool)
		r.eng.Reset(cfg.Seed) // drop the wiring so retire hands back a clean engine
		pool.retire(r)
	})
	if pooled >= fresh*0.6 {
		t.Errorf("pooled rig wiring allocates %.0f objects, want < 60%% of fresh %.0f", pooled, fresh)
	}
}

// Streaming a run's spans into a ChromeStream must produce byte-for-byte
// the document that buffered recording plus WriteChrome produces.
func TestTraceStreamMatchesBuffered(t *testing.T) {
	cfg := Config{Backend: DYAD, Model: tinyModel(), Frames: 5, Pairs: 2, SingleNode: true, Seed: 21}

	buffered := cfg
	buffered.RecordSpans = true
	res, err := Run(buffered)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := trace.WriteChrome(&want, []trace.Run{{Label: cfg.Label(), Spans: res.Spans}}); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	stream := trace.NewChromeStream(&got)
	streamed := cfg
	streamed.TraceStream = stream
	sres, err := Run(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("streamed Chrome trace diverged from buffered export (%d vs %d bytes)", got.Len(), want.Len())
	}
	if sres.Spans != nil {
		t.Errorf("streaming run retained %d spans, want none", len(sres.Spans))
	}
	resultScalars(t, "trace stream", sres, res)
}

// A run the watchdog kills unwinds every process, so it retires its rig
// as a healthy run does: the pool keeps its engine, cluster and
// recorders, and the next pooled run equals the same config run
// unpooled. A run whose process stays live cannot be reset: it closes its
// engine and retires nothing.
func TestKilledRunRetiresItsRig(t *testing.T) {
	killed := Config{Backend: DYAD, Model: tinyModel(), Frames: 1000, Pairs: 1, SingleNode: true,
		Seed: 5, MaxEvents: 50, RecordSpans: true, CritPath: true} // the watchdog kills it almost at once
	next := Config{Backend: DYAD, Model: tinyModel(), Frames: 6, Pairs: 2, SingleNode: true,
		Seed: 13, RecordSpans: true, CritPath: true}
	pool := &runPool{}
	if _, err := runPooled(killed, pool); !errors.Is(err, sim.ErrWatchdog) {
		t.Fatalf("watchdog-limited run: %v, want a watchdog abort", err)
	}
	eng, cl, rec, cp := pool.eng, pool.cl, pool.rec, pool.cp
	if eng == nil || cl == nil || rec == nil || cp == nil {
		t.Fatal("the killed run left no engine, cluster or recorder in the pool")
	}
	got, err := runPooled(next, pool)
	if err != nil {
		t.Fatal(err)
	}
	if pool.eng != eng || pool.cl != cl || pool.rec != rec || pool.cp != cp {
		t.Error("the next run did not reuse the killed run's rig")
	}
	want, err := Run(next)
	if err != nil {
		t.Fatal(err)
	}
	resultScalars(t, "after a killed run", got, want)
	if g, w := spanCritDump(got), spanCritDump(want); g != w {
		t.Errorf("spans or critical path after a killed run diverged from an unpooled run:\n%s\nwant\n%s", g, w)
	}

	// A process that swallows its abort and blocks again stays live.
	pool = &runPool{}
	r := newRig(next, pool)
	var stubborn func(p *sim.Proc)
	stubborn = func(p *sim.Proc) {
		defer func() {
			recover()
			stubborn(p)
		}()
		p.Block()
	}
	r.eng.Spawn("stubborn", stubborn)
	if _, err := r.run(pool); !errors.Is(err, sim.ErrStranded) {
		t.Fatalf("run with a stubborn process: %v, want stranded", err)
	}
	if r.eng.Live() == 0 {
		t.Fatal("the stubborn process did not stay live")
	}
	if pool.eng != nil || pool.cl != nil || pool.rec != nil || pool.cp != nil {
		t.Error("a run with a live process retired its rig")
	}
}

// profileBytes renders every kept profile of a result, JSON then tree.
func profileBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, prof := range append(append([]*caliper.Profile(nil), res.ProducerProfiles...), res.ConsumerProfiles...) {
		if err := prof.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		prof.Render(&buf)
	}
	return buf.Bytes()
}

// probeRecycledSlot resets a pooled engine and runs two processes on it:
// the first keeps a profile, the second does not. It returns the second's
// profile and the tally it started with, which must both be empty
// whatever the last run recorded in its slot.
func probeRecycledSlot(t *testing.T, eng *sim.Engine) (prof *caliper.Profile, start Totals) {
	t.Helper()
	eng.Reset(1)
	eng.Spawn("keeper", func(p *sim.Proc) { p.KeepProfile() })
	probe := eng.Spawn("probe", func(p *sim.Proc) { start.Movement, start.Idle = p.Tally() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return probe.Profile(), start
}

// One pool carries its engine's profile tables through runs of changing
// shape — fewer pairs, a different backend with its noise processes in
// the low slots, more pairs than the slab holds, and a run the watchdog
// kills mid-region — and every run's totals and kept profiles still equal
// an unpooled run of the same config. A killed run leaves its tables in
// the pool for the next run to reset, and a recycled slot starts with a
// zero tally and records nothing until its process keeps a profile.
func TestPooledAnnotatorsIsolateRuns(t *testing.T) {
	base := Config{Model: tinyModel(), Frames: 5, KeepProfiles: true, Seed: 9}
	dyad4 := base
	dyad4.Backend, dyad4.Pairs, dyad4.SingleNode = DYAD, 4, true
	lustre2 := base
	lustre2.Backend, lustre2.Pairs, lustre2.LustreNoise = Lustre, 2, true
	dyad8 := base
	dyad8.Backend, dyad8.Pairs = DYAD, 8
	bad := dyad4
	bad.MaxEvents = 50 // the watchdog kills it mid-region
	xfs1 := base
	xfs1.Backend, xfs1.Pairs, xfs1.SingleNode = XFS, 1, true

	pool := &runPool{}
	for i, cfg := range []Config{dyad4, lustre2, dyad8, bad, xfs1, dyad4} {
		got, err := runPooled(cfg, pool)
		if cfg.MaxEvents > 0 {
			if err == nil {
				t.Fatalf("run %d: watchdog-limited run unexpectedly succeeded", i)
			}
			if pool.eng == nil {
				t.Fatalf("run %d: the killed run dropped its engine and profile tables", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("run %d (%s): %v", i, cfg.Label(), err)
		}
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("run %d (%s)", i, cfg.Label())
		resultScalars(t, what, got, want)
		if len(got.ProducerProfiles) != cfg.Pairs || len(got.ConsumerProfiles) != cfg.Pairs {
			t.Fatalf("%s: kept %d/%d profiles, want %d each", what, len(got.ProducerProfiles), len(got.ConsumerProfiles), cfg.Pairs)
		}
		if g, w := profileBytes(t, got), profileBytes(t, want); !bytes.Equal(g, w) {
			t.Errorf("%s: pooled profiles diverged from an unpooled run:\n%s\nwant\n%s", what, g, w)
		}
		p, start := probeRecycledSlot(t, pool.eng)
		if p.Proc != "" || p.Root.Name != "" || len(p.Root.Children) != 0 {
			t.Errorf("%s: a recycled slot still reads a profile rooted at %q", what, p.Root.Name)
		}
		if start != (Totals{}) {
			t.Errorf("%s: a recycled slot starts with the tally %v", what, start)
		}
	}
}

// spanCritDump renders what a traced, recorded run keeps: every span and
// the critical-path summary.
func spanCritDump(res *Result) string {
	var sb strings.Builder
	for _, s := range res.Spans {
		fmt.Fprintf(&sb, "%+v\n", s)
	}
	fmt.Fprintf(&sb, "%+v unclosed=%d\n", *res.Crit.Path, res.Crit.Unclosed)
	for _, fl := range res.Crit.Frames {
		fmt.Fprintf(&sb, "%+v\n", fl)
	}
	return sb.String()
}

// sinkDump renders everything a traced, metered, recorded run exports: its
// spans and critical path (spanCritDump), its metrics CSV and Prometheus
// snapshot, and its frame waterfall.
func sinkDump(t *testing.T, res *Result) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(spanCritDump(res))
	runs := []metrics.Run{{Label: "run", Reg: res.Metrics}}
	if err := metrics.WriteCSV(&sb, runs); err != nil {
		t.Fatal(err)
	}
	if err := metrics.WriteProm(&sb, runs); err != nil {
		t.Fatal(err)
	}
	if err := critpath.WriteWaterfall(&sb, []critpath.LineageSet{{Label: "run", Frames: res.Crit.Frames}}); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// The pool's span and critical-path recorders, and the block its engine
// lends a metered run to sample into, serve run after run, so a Result
// must own what it keeps: later runs through the same pool — more pairs,
// an unrecorded run, a streamed one, a Lustre run with its noise
// processes in the low slots — leave an earlier result's spans, critical
// path and metrics as they were. Reuse is invisible too: each
// pooled run equals the same config run unpooled, and a recorder the run
// did not ask for (or a streaming one) neither leaves nor joins the pool.
func TestPooledRecordersStayWithTheirResult(t *testing.T) {
	a := Config{Backend: DYAD, Model: tinyModel(), Frames: 6, Pairs: 2, SingleNode: true,
		Seed: 13, RecordSpans: true, CritPath: true, MetricsInterval: time.Millisecond}
	more := a
	more.Pairs, more.Seed = 4, 14
	plain := more
	plain.RecordSpans, plain.CritPath, plain.MetricsInterval = false, false, 0
	streamed := plain
	streamed.TraceStream = trace.NewChromeStream(discard{})
	lustre := a
	lustre.Backend, lustre.SingleNode, lustre.LustreNoise = Lustre, false, true

	pool := &runPool{}
	resA, err := runPooled(a, pool)
	if err != nil {
		t.Fatal(err)
	}
	dumpA := sinkDump(t, resA)
	rec, cp := pool.rec, pool.cp
	if rec == nil || cp == nil {
		t.Fatal("a traced, recorded run retired no recorder")
	}
	for i, cfg := range []Config{more, plain, streamed, lustre, a} {
		got, err := runPooled(cfg, pool)
		if err != nil {
			t.Fatalf("run %d (%s): %v", i, cfg.Label(), err)
		}
		what := fmt.Sprintf("run %d (%s)", i, cfg.Label())
		if pool.rec != rec || pool.cp != cp {
			t.Fatalf("%s: the pool does not hold the recorders it handed out", what)
		}
		if sinkDump(t, resA) != dumpA {
			t.Fatalf("%s: changed the spans, critical path or metrics of the first run's result", what)
		}
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		resultScalars(t, what, got, want)
		if !cfg.RecordSpans {
			if got.Spans != nil || got.Crit != nil || got.Metrics != nil {
				t.Errorf("%s: an unrecorded run carries spans, a critical path or metrics", what)
			}
			continue
		}
		if g, w := sinkDump(t, got), sinkDump(t, want); g != w {
			t.Errorf("%s: pooled spans, critical path or metrics diverged from an unpooled run:\n%s\nwant\n%s", what, g, w)
		}
	}
}

// Results own what they keep while other RunMany calls reuse the pooled
// recorders: one goroutine reads a batch's spans and critical paths while
// two others record more batches through the process-wide pools. Under
// -race a Result that shared memory with a recycled recorder is a
// reported race; without it, a changed dump.
func TestRecycledRecordersLeaveResultsAlone(t *testing.T) {
	cfg := Config{Backend: DYAD, Model: tinyModel(), Frames: 4, Pairs: 2, SingleNode: true,
		Seed: 3, RecordSpans: true, CritPath: true}
	batch := RepeatConfigs(cfg, 4)
	cfg.Seed, cfg.Pairs = 4, 3
	later := RepeatConfigs(cfg, 4)
	dump := func(results []*Result) string {
		var sb strings.Builder
		for _, res := range results {
			sb.WriteString(spanCritDump(res))
		}
		return sb.String()
	}
	first, err := RunMany(batch, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := dump(first)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := RunMany(later, 2); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if dump(first) != want {
			t.Error("a later batch changed an earlier batch's spans or critical paths")
		}
	}
	wg.Wait()
	if dump(first) != want {
		t.Error("a later batch changed an earlier batch's spans or critical paths")
	}
}

// A pooled engine lends each run the tables its last run filled (the
// staging, cache and Lustre mirror file tables, the Lustre layouts, the
// KVS, the lock tables and the clients' synced flows), the processes,
// pair table, gates, clients and servers it built, and the block its
// metrics sampled into, so each must start the next run as new. Every
// run here is metered and records the critical path. Each DYAD first run
// leaves them full, with one more pair and two more frames per pair than
// the run after it, so it lays its files out across the OSTs in another
// order: a completed run
// leaves every frame staged, cached, mirrored and committed; a run the
// watchdog kills mid-frame leaves locks held and flows half synced; a run
// under a two-frame staging budget has evicted and spilled frames. A run
// of fewer frames than the run after it leaves frame paths too short for
// it. An XFS run killed mid-frame leaves its pair gates with waiters, a
// Lustre run killed mid-frame leaves its MDS and OST queues with waiters
// and its noise booked ahead and watching the OSTs, which a DYAD run after
// it takes without noise. A killed run leaves its sample block part
// filled, and a larger Lustre run leaves it laid out for more series and
// more sample boundaries than the run after it takes. A pooled run after
// each must equal the same config run unpooled, export the same metrics,
// critical path and waterfall, and hold only its own frames.
func TestLentTablesStartEmpty(t *testing.T) {
	cfg := Config{Backend: DYAD, Model: tinyModel(), Frames: 6, Pairs: 4, Seed: 21,
		LustreFallback: true, RecordSpans: true, CritPath: true, MetricsInterval: time.Millisecond}
	completed := cfg
	completed.Pairs, completed.Frames, completed.Seed = 5, 8, 22
	killed := completed
	killed.MaxEvents = 600
	evicting := completed
	evicting.Capacity = &capacity.Spec{StagingBytes: 2 * cfg.Model.FrameBytes(), Policy: capacity.PolicyLRU}
	shorter := completed
	shorter.Frames = cfg.Frames - 2
	xfsCfg := cfg
	xfsCfg.Backend, xfsCfg.LustreFallback, xfsCfg.SingleNode = XFS, false, true
	xfsKilled := killed
	xfsKilled.Backend, xfsKilled.LustreFallback, xfsKilled.SingleNode = XFS, false, true
	xfsKilled.MaxEvents = 400 // an XFS run is over by 600
	lustreCfg := cfg
	lustreCfg.Backend, lustreCfg.LustreFallback, lustreCfg.LustreNoise = Lustre, false, true
	lustreKilled := killed
	lustreKilled.Backend, lustreKilled.LustreFallback, lustreKilled.LustreNoise = Lustre, false, true
	lustreLarger := lustreCfg
	lustreLarger.Pairs, lustreLarger.Frames, lustreLarger.Seed = 16, 12, 23
	// tables counts the frames a run left in each lent table: a DYAD run's
	// staged, cached, mirrored and committed frames, or the frames in an
	// XFS or Lustre file table.
	tables := func(r *rig) []int {
		switch {
		case r.dy != nil:
			return []int{r.dy.Broker(r.producerNode(0)).Staging().Tree().Len(),
				r.dy.Broker(r.consumerNode(0)).Cache().Len(), r.lfs.Tree().Len(), r.dy.KVS().Len()}
		case r.xf != nil:
			return []int{r.xf.Tree().Len()}
		}
		return []int{r.lfs.Tree().Len()}
	}
	wants := map[*Config]*Result{}
	for _, tc := range []struct {
		name         string
		first, after *Config
	}{
		{"completed", &completed, &cfg},
		{"killed", &killed, &cfg},
		{"evicting", &evicting, &cfg},
		{"shorter", &shorter, &cfg},
		{"xfs killed", &xfsKilled, &xfsCfg},
		{"lustre killed", &lustreKilled, &lustreCfg},
		{"lustre killed, then no noise", &lustreKilled, &cfg},
		{"larger lustre", &lustreLarger, &cfg},
	} {
		want := wants[tc.after]
		if want == nil {
			var err error
			if want, err = Run(*tc.after); err != nil {
				t.Fatal(err)
			}
			wants[tc.after] = want
		}
		pool := &runPool{}
		r := newRig(*tc.first, pool)
		_, err := r.run(pool)
		if (err != nil) != (tc.first.MaxEvents > 0) {
			t.Fatalf("%s: first run: %v", tc.name, err)
		}
		if left := tables(r); slices.Contains(left, 0) {
			t.Fatalf("%s: first run left %v frames in its tables, want some in each", tc.name, left)
		}
		if r.reg.Len() == 0 {
			t.Fatalf("%s: first run took no metrics sample", tc.name)
		}
		r2 := newRig(*tc.after, pool)
		got, err := r2.run(pool)
		if err != nil {
			t.Fatalf("after a %s run: %v", tc.name, err)
		}
		if r2.eng != r.eng {
			t.Fatalf("after a %s run: the engine was not reused", tc.name)
		}
		own := tc.after.Pairs * tc.after.Frames // every pair runs on the same two nodes
		for _, n := range tables(r2) {
			if n != own {
				t.Errorf("after a %s run: tables hold %v frames, want %d each", tc.name, tables(r2), own)
				break
			}
		}
		resultScalars(t, "after a "+tc.name+" run", got, want)
		if g, w := sinkDump(t, got), sinkDump(t, want); g != w {
			t.Errorf("after a %s run: spans, critical path, metrics or waterfall differ from an unpooled run", tc.name)
		}
	}
}

// A pair table entry's process names are made once, for its pair index,
// and seed the processes' random streams, so each must be spelt as the
// fmt.Sprintf it stands for, past pair 999 too; a pooled run that grows
// the table spawns its processes under them.
func TestPairNamesMatchSprintf(t *testing.T) {
	cfg := Config{Backend: DYAD, Model: tinyModel(), Frames: 1, Pairs: 4, Seed: 1}
	pool := &runPool{}
	defer func() { pool.eng.Close() }()
	for _, pairs := range []int{4, 1024} {
		cfg.Pairs = pairs
		r := newRig(cfg, pool)
		if _, err := r.run(pool); err != nil {
			t.Fatal(err)
		}
		procs := r.eng.Procs()
		for _, pair := range []int{0, 999, 1000, 1023} {
			if pair >= pairs {
				continue
			}
			prod, cons := fmt.Sprintf("producer%03d", pair), fmt.Sprintf("consumer%03d", pair)
			pe := r.pairs[pair]
			if pe.prodName != prod || pe.consName != cons {
				t.Errorf("pair %d: names %q and %q, want %q and %q", pair, pe.prodName, pe.consName, prod, cons)
			}
			if p, c := procs[r.firstProc+2*pair].Name(), procs[r.firstProc+2*pair+1].Name(); p != prod || c != cons {
				t.Errorf("pair %d: spawned as %q and %q, want %q and %q", pair, p, c, prod, cons)
			}
		}
	}
}
