package core

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/capacity"
	"repro/internal/cluster"
	"repro/internal/critpath"
	"repro/internal/dyad"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/lustre"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/xfs"
)

// lustreServers is the paper-scale Lustre deployment used for every run:
// one MDS plus eight OSTs on dedicated server nodes.
const lustreServers = 9

// Run executes one workflow run and returns its measurements. It builds
// its rig fresh and keeps nothing once it returns; batches should use
// RunMany, whose workers reuse pooled rigs.
func Run(cfg Config) (*Result, error) { return runPooled(cfg, nil) }

// rig wires one run: engine, cluster, backend, processes, measurements.
type rig struct {
	cfg cfgResolved
	eng *sim.Engine
	cl  *cluster.Cluster

	// Exactly one backend set is active per run.
	dy  *dyad.System
	xf  *xfs.FS
	lfs *lustre.FS

	payload vfs.Payload // shared synthetic frame payload (size-exact)

	// firstProc is the spawn slot of pair 0's producer: pair i's producer
	// is at firstProc+2i, its consumer at firstProc+2i+1.
	firstProc int
	// pairs is the run's part of the pair table the engine lends
	// (spawnAll): pair i's names, frame paths, gate and entry points.
	pairs      pairTable
	framesRead int
	bytesRead  int64
	decodeErrs []error

	consumersDone int

	// rec records virtual-time spans when Config.RecordSpans is set; nil
	// otherwise (tracing disabled at zero cost).
	rec *trace.Recorder

	// cp records the causal dependency graph when Config.CritPath is set;
	// nil otherwise (every hook is one nil check, zero allocations).
	cp *critpath.Recorder

	// reg samples resource metrics when Config.MetricsInterval is set; nil
	// otherwise (sampling disabled at zero cost). framesProduced and the
	// processes' idle tallies feed its workflow-level series.
	reg            *metrics.Registry
	framesProduced int64

	// recovery counts injected fault events (backends record their own
	// recovery activity; collect merges everything into Result.Recovery).
	recovery faults.Metrics
	// failDepth tracks overlapping DeviceFail windows per device.
	failDepth map[*cluster.SSD]int

	// capMet accumulates capacity-pressure activity (evictions, spills,
	// stalls) when Config.Capacity is enabled; nil otherwise.
	capMet *capacity.Metrics
}

// cfgResolved caches derived quantities next to the user config.
type cfgResolved struct {
	Config
	stride    int
	frequency time.Duration
	frameSize int64
}

// newRig wires one run, drawing recyclable state (engine, cluster, span
// and critical-path recorders) from pool when compatible state is
// available — nil pool or no match builds everything fresh. Reuse is
// observationally invisible: the Reset contracts restore exact just-built
// state, so a pooled run is byte-identical to an unpooled one.
func newRig(cfg Config, pool *runPool) *rig {
	rc := cfgResolved{
		Config:    cfg,
		stride:    cfg.EffectiveStride(),
		frequency: cfg.Frequency(),
		frameSize: cfg.Model.FrameBytes(),
	}
	nodes := cfg.ComputeNodes()
	if cfg.Backend == Lustre || cfg.LustreFallback {
		nodes += lustreServers
	}
	spec := cluster.CoronaProfile(nodes)
	// Worst-case queue depth per device: every process on a node blocked on
	// the same resource.
	spec.QueueHint = 2 * MaxProcsPerNode
	if cfg.SpecTune != nil {
		// Calibration hook. Must run before pool.take: the pool hands out a
		// recycled cluster only when the (already tuned) spec matches by
		// value, so a tuned run can never inherit an untuned cluster.
		cfg.SpecTune(&spec)
	}
	r := &rig{cfg: rc}
	pool.take(r, spec)
	eng := r.eng
	if eng == nil {
		eng = sim.NewEngine(cfg.Seed)
		if pool != nil {
			eng.Retain() // its coroutines serve the pool's next run
		}
		r.eng = eng
	}
	// A pooled engine holds idle coroutines, and a panic while wiring
	// drops it: release them (run closes it on any later loss).
	defer func() {
		if p := recover(); p != nil {
			eng.Close()
			panic(p)
		}
	}()
	// Pre-size the kernel for the run's known process population (one
	// producer + one consumer per pair, plus the noise processes of a
	// Lustre backend or mirror) and a comfortable event-queue floor, so
	// steady state never grows a slice. Idempotent on a reused engine (its
	// arrays are already at least this large).
	procs := 2 * cfg.Pairs
	if (cfg.Backend == Lustre || cfg.LustreFallback) && cfg.LustreNoise {
		procs += lustreServers - 1 // one noise process per OST
	}
	eng.Prealloc(procs, procs+8)
	if r.cl == nil {
		r.cl = cluster.New(eng, spec)
	}
	cl := r.cl

	if cfg.RecordSpans {
		if r.rec == nil {
			r.rec = trace.NewRecorder()
		}
		eng.SetRecorder(r.rec)
	} else if cfg.TraceStream != nil {
		// Streaming tracer: spans serialize on emission into the shared
		// Chrome stream; the recorder holds only proc tids.
		r.rec = cfg.TraceStream.StartRun(cmp.Or(cfg.RunLabel, cfg.Label()))
		eng.SetRecorder(r.rec)
	}
	if cfg.CritPath {
		// Install before any backend construction so every spawn (including
		// Lustre noise processes) lands in the graph.
		if r.cp == nil {
			r.cp = critpath.NewRecorder()
		}
		eng.SetCritRecorder(r.cp)
	}

	buildLustre := func() {
		params := lustre.DefaultParams()
		if !cfg.LustreNoise {
			params.BackgroundLoad = 0
		}
		compute := cfg.ComputeNodes()
		mds := cl.Node(compute)
		var osts []*cluster.Node
		for i := compute + 1; i < compute+lustreServers; i++ {
			osts = append(osts, cl.Node(i))
		}
		r.lfs = lustre.New(cl, mds, osts, params)
		r.lfs.StartNoise()
	}

	switch cfg.Backend {
	case DYAD:
		params := dyad.DefaultParams()
		if cfg.DYADOverride != nil {
			params = *cfg.DYADOverride
		}
		r.dy = dyad.New(cl, cl.Node(0), params)
		if cfg.LustreFallback {
			// Deploy the shared mirror next to DYAD; degraded consumers read
			// it when a producer's broker and staging device are both gone.
			buildLustre()
			lfs := r.lfs
			r.dy.SetFallback(func(n *cluster.Node) vfs.FS { return lfs.Client(n) })
		}
	case XFS:
		r.xf = xfs.New(cl.Node(0), xfs.DefaultParams())
	case Lustre:
		buildLustre()
	}

	// Finite burst-buffer capacity (DESIGN.md §3i). Disabled specs never
	// reach this code: the backends keep nil capacity stores and the
	// timeline is byte-identical to a build without the capacity layer.
	capOn := cfg.Capacity.Enabled()
	if capOn {
		r.capMet = &capacity.Metrics{}
		switch cfg.Backend {
		case DYAD:
			r.dy.SetCapacity(cfg.Capacity, r.capMet)
		case XFS:
			xf := r.xf
			store := capacity.NewStore(eng, cl.Node(0).Name()+"/xfs", cfg.Capacity.StagingBytes,
				capacity.NewEvictor(cfg.Capacity.Policy), false, r.capMet,
				func(path string, size int64, consumed bool) bool {
					xf.Tree().Remove(path)
					return false // XFS has no shared mirror: evictions drop data
				})
			xf.SetCapacity(store)
		}
		for _, ev := range cfg.Capacity.Plan {
			ev := ev
			eng.After(ev.At, func() { r.applyProvision(ev) })
		}
	}

	if cfg.MetricsInterval > 0 {
		r.reg = metrics.New(cfg.MetricsInterval, sampleBlocks.Lend(eng))
		r.registerMetrics()
		reg := r.reg
		eng.SetSampler(cfg.MetricsInterval, func(t sim.Time) { reg.Sample(t) })
	}

	if cfg.StragglerFactor > 1 {
		// Degrade both the device and the link so the injection reaches
		// every backend's data path (Lustre never touches compute-node
		// SSDs; DYAD never leaves without the NIC).
		cl.Node(0).SSD.Degrade(cfg.StragglerFactor)
		cl.Node(0).DegradeNIC(cfg.StragglerFactor)
	}

	if !cfg.RealFrames {
		// One shared size-only descriptor of the exact frame size for all
		// pairs. Cost models depend only on the size, so sweeps move
		// "frames" through the full data path with zero bytes allocated.
		r.payload = vfs.SizeOnly(rc.frameSize)
	}

	// Watchdog: unlimited on healthy runs unless configured; fault-injected
	// and capacity-constrained runs get generous defaults so a livelocked
	// recovery loop or an unsatisfiable back-pressure stall aborts with
	// sim.ErrWatchdog instead of hanging the batch.
	faultsOn := cfg.Faults != nil && cfg.Faults.Enabled()
	maxEvents, maxTime := cfg.MaxEvents, sim.Time(cfg.MaxVirtualTime)
	if faultsOn || capOn {
		if maxEvents == 0 {
			maxEvents = int64(cfg.Pairs)*int64(cfg.Frames)*100_000 + 10_000_000
		}
		if maxTime == 0 {
			maxTime = 4*rc.frequency*time.Duration(cfg.Frames) + 10*time.Minute
		}
	}
	eng.SetWatchdog(maxEvents, maxTime)
	if faultsOn {
		r.scheduleFaults()
	}
	return r
}

// producerNode / consumerNode implement the paper's placement: collocated
// on node 0 for single-node runs; producers on the first half of the
// compute nodes and consumers on the second half otherwise, 8 per node.
func (r *rig) producerNode(pair int) *cluster.Node {
	if r.cfg.SingleNode {
		return r.cl.Node(0)
	}
	return r.cl.Node(pair / MaxProcsPerNode)
}

func (r *rig) consumerNode(pair int) *cluster.Node {
	if r.cfg.SingleNode {
		return r.cl.Node(0)
	}
	return r.cl.Node(r.cfg.ComputeNodes()/2 + pair/MaxProcsPerNode)
}

// appendFramePath appends the name of frame f of a pair's flow: the
// canonical path "/ensemble/pair%03d/frame%05d.pb". Every layer below
// takes it as is.
func appendFramePath(b []byte, pair, f int) []byte {
	b = append(b, "/ensemble/pair"...)
	b = appendPadded(b, pair, 3)
	b = append(b, "/frame"...)
	b = appendPadded(b, f, 5)
	return append(b, ".pb"...)
}

// pairPaths spells the paths of a pair's frames 0 to frames-1, in order,
// in one string and one allocation, which the pair's producer and
// consumer share (rig.framePath).
func pairPaths(pair, frames int) string {
	var buf [64]byte // one path, at any int width
	var b strings.Builder
	b.Grow(frames * len(appendFramePath(buf[:0], pair, frames))) // no path is wider
	for f := 0; f < frames; f++ {
		b.Write(appendFramePath(buf[:0], pair, f))
	}
	return b.String()
}

// framePath returns the path of frame f of pair's flow, cut from the
// pair's paths. Every frame below 100000 has the width of frame 0's path,
// and each power of ten from there on adds a digit. It is out of line for
// the frames of runProducer and runConsumer (see frameMark).
//
//go:noinline
func (r *rig) framePath(pair, f int) string {
	paths := r.pairs[pair].paths
	w := strings.Index(paths, ".pb") + len(".pb")
	at, n := f*w, w
	for d := 100000; d <= f; d *= 10 {
		at += f - d // frames d to f-1 are a digit wider
		n++
	}
	return paths[at : at+n]
}

// appendPadded appends the decimal form of a non-negative n, zero-padded
// to width digits as by %0*d.
func appendPadded(b []byte, n, width int) []byte {
	digits := 1
	for x := n; x >= 10; x /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(n), 10)
}

// pairTable holds what a run builds per pair, by pair index. Each engine
// lends its runs one table (pairTables), so a run of a shape the engine
// has seen spawns its pairs without allocating.
type pairTable []*pairEntry

// pairTables is the engines' free list of pair tables.
var pairTables = sim.NewFreeList[pairTable]()

// sampleBlocks is the engines' free list of the blocks a metered run
// samples into. Result.Metrics keeps copies (Registry.DropProbes), so a
// warm run of a shape its engine has metered grows no sample column.
var sampleBlocks = sim.NewFreeList[metrics.SampleBlock]()

// pairEntry is one pair's entry of a pair table. The names and entry
// points are made once per entry; the frame paths are kept while the
// frame count is unchanged; r and the gate are the current run's.
type pairEntry struct {
	r    *rig
	pair int
	// prodName and consName are "producer%03d" and "consumer%03d": a
	// process's name seeds its random stream.
	prodName, consName string
	// paths spells the pair's frames 0 to frames-1 (pairPaths).
	frames int
	paths  string
	// gate is &coarse on a run with coarse-grained coupling, nil on
	// DYAD's.
	gate   *pairGate
	coarse pairGate
	// produce and consume are the pair's process bodies, bound once.
	produce, consume func(p *sim.Proc)
}

func newPairEntry(pair int) *pairEntry {
	pe := &pairEntry{pair: pair,
		prodName: fmt.Sprintf("producer%03d", pair), consName: fmt.Sprintf("consumer%03d", pair)}
	pe.produce = func(p *sim.Proc) { pe.r.runProducer(p, pe.pair, pe.gate) }
	pe.consume = func(p *sim.Proc) { pe.r.runConsumer(p, pe.pair, pe.gate) }
	return pe
}

// spawnAll creates all producer and consumer processes, from the pair
// table the engine lends: the table is valid until the engine's next
// Reset.
func (r *rig) spawnAll() {
	r.firstProc = len(r.eng.Procs())
	t := pairTables.Lend(r.eng)
	for len(*t) < r.cfg.Pairs {
		*t = append(*t, newPairEntry(len(*t)))
	}
	r.pairs = (*t)[:r.cfg.Pairs]
	coarse := r.cfg.Backend != DYAD || r.cfg.ForceCoarseSync
	for pair, pe := range r.pairs {
		pe.r = r
		if pe.frames != r.cfg.Frames {
			pe.frames, pe.paths = r.cfg.Frames, pairPaths(pair, r.cfg.Frames)
		}
		pe.gate = nil
		if coarse {
			prod, cons := r.producerNode(pair), r.consumerNode(pair)
			pe.coarse = pairGate{
				request: mpi.NewNotify(r.cl, cons, prod),
				post:    mpi.NewNotify(r.cl, prod, cons),
			}
			pe.gate = &pe.coarse
		}
		r.eng.Spawn(pe.prodName, pe.produce)
		r.eng.Spawn(pe.consName, pe.consume)
	}
}

// pairGate is the coarse-grained coupling of the traditional backends:
// the workflow manager launches the producer's next simulation task only
// after the consumer has retrieved the previous frame (§III: serialized,
// non-overlapping task execution), and notifies the consumer when a frame
// has been written.
type pairGate struct {
	request *mpi.Notify // consumer -> producer: "ready for frame k"
	post    *mpi.Notify // producer -> consumer: "frame k written"
}

// runProducer emulates the MD simulation side of one pair.
func (r *rig) runProducer(p *sim.Proc, pair int, gate *pairGate) {
	if r.cfg.KeepProfiles {
		p.KeepProfile()
	}
	var client *dyad.Client
	var fs vfs.FS
	switch r.cfg.Backend {
	case DYAD:
		client = r.dy.NewClient(r.producerNode(pair))
	case XFS:
		fs = r.xf
	case Lustre:
		fs = r.lfs.Client(r.producerNode(pair))
	}

	for f := 0; f < r.cfg.Frames; f++ {
		if gate != nil {
			// Task-launch serialization: wait until the consumer has
			// consumed the previous frame. Not part of production time —
			// in a real coarse-grained workflow this producer task has not
			// been scheduled yet (hence a detail span, not idle).
			rg := p.Region("workflow", "task_launch_wait", trace.ClassDetail)
			gate.request.WaitSeq(p, f+1)
			rg.End(0, "")
		}

		// MD compute: one stride of steps (jittered as a block).
		rg := p.Region("workflow", "md_compute", trace.ClassCompute)
		p.Sleep(p.Rand().Jitter(r.cfg.frequency, r.cfg.ComputeJitter))
		rg.End(0, "")

		// Serialize the frame (CPU cost proportional to size).
		rg = p.Region("workflow", "serialize", trace.ClassCompute)
		data := r.framePayload(pair, f)
		p.Sleep(cpuTime(data.Size(), 2.5e9))
		rg.End(0, "")

		path := r.framePath(pair, f)
		switch r.cfg.Backend {
		case DYAD:
			if err := client.Produce(p, path, data); err != nil {
				// Panicking with the error value aborts the run; the kernel
				// wraps it with %w so RunMany callers can errors.Is against
				// the underlying sentinel (faults.ErrDeviceFailed, ...).
				panic(fmt.Errorf("core: producer %s: %w", path, err))
			}
		default:
			rg = p.Region("workflow", "write_single_buf", trace.ClassMovement)
			if err := fs.WriteFile(p, path, data); err != nil {
				panic(fmt.Errorf("core: producer write %s: %w", path, err))
			}
			rg.End(0, "")
		}
		if gate != nil {
			rg = p.Region("workflow", "explicit_sync", trace.ClassIdle)
			gate.post.Post(p)
			rg.End(0, "")
		}
		r.framesProduced++
		frameMark(p, "frame_produced", data.Size(), path)
	}
}

// runConsumer emulates the in situ analytics side of one pair.
func (r *rig) runConsumer(p *sim.Proc, pair int, gate *pairGate) {
	if r.cfg.KeepProfiles {
		p.KeepProfile()
	}
	var client *dyad.Client
	var fs vfs.FS
	switch r.cfg.Backend {
	case DYAD:
		client = r.dy.NewClient(r.consumerNode(pair))
	case XFS:
		fs = r.xf
	case Lustre:
		fs = r.lfs.Client(r.consumerNode(pair))
	}

	if r.cfg.ConsumerHeadStart > 0 {
		// Producer job head start: the workflow manager launched this
		// consumer job ConsumerHeadStart after the producers. Job-launch
		// scheduling, not consumption — a detail span, so it lands in
		// neither the movement nor the idle column of the §IV-C split.
		rg := p.Span("workflow", "job_start_delay", trace.ClassDetail)
		p.Sleep(r.cfg.ConsumerHeadStart)
		rg.End(0, "")
	}

	for f := 0; f < r.cfg.Frames; f++ {
		if gate != nil {
			// Ask the workflow manager for the next frame's producer task,
			// then wait for the data: the explicit synchronization whose
			// cost the paper reports as consumer idle time.
			gate.request.Post(p)
			rg := p.Region("workflow", "explicit_sync", trace.ClassIdle)
			gate.post.WaitSeq(p, f+1)
			rg.End(0, "")
		}
		readStart := p.Now()
		path := r.framePath(pair, f)
		var data vfs.Payload
		switch r.cfg.Backend {
		case DYAD:
			got, err := client.Consume(p, path)
			if err != nil {
				panic(fmt.Errorf("core: consumer %s: %w", path, err))
			}
			data = got
		default:
			rg := p.Region("workflow", "read_single_buf", trace.ClassMovement)
			got, err := fs.ReadFile(p, path)
			if err != nil {
				panic(fmt.Errorf("core: consumer read %s: %w", path, err))
			}
			rg.End(0, "")
			data = got
		}
		p.CritDepend(path, "consume")
		p.CritHop(path, "consume", readStart, data.Size())
		frameMark(p, "frame_consumed", data.Size(), "")
		r.framesRead++
		r.bytesRead += data.Size()
		if r.cfg.RealFrames {
			if err := r.verifyFrame(pair, f, data.Bytes()); err != nil {
				r.decodeErrs = append(r.decodeErrs, err)
			}
		}

		// Deserialize, then emulate the analytics computation for one
		// frame period (paper §IV-C).
		rg := p.Region("workflow", "deserialize", trace.ClassCompute)
		p.Sleep(cpuTime(data.Size(), 3.0e9))
		rg.End(0, "")
		rg = p.Region("workflow", "analytics", trace.ClassCompute)
		p.Sleep(r.cfg.frequency)
		rg.End(0, "")
	}
	r.consumersDone++
	if r.consumersDone == r.cfg.Pairs && r.lfs != nil {
		r.lfs.StopNoise()
	}
}

// framePayload returns the payload the producer writes for frame f: the
// shared size-only descriptor for sweeps, or a freshly encoded frame when
// the run verifies content end to end.
func (r *rig) framePayload(pair, f int) vfs.Payload {
	if !r.cfg.RealFrames {
		return r.payload
	}
	return vfs.BytesPayload(frame.NewSynthetic(r.cfg.Model.Name, int64(f), r.cfg.Model.Atoms, r.cfg.Seed^uint64(pair)<<20^uint64(f)).Encode())
}

// verifyFrame checks a consumed real frame decodes and matches its
// producer's payload.
func (r *rig) verifyFrame(pair, f int, data []byte) error {
	fr, err := frame.Decode(data)
	if err != nil {
		return fmt.Errorf("pair %d frame %d: %w", pair, f, err)
	}
	if fr.Step != int64(f) || fr.Model != r.cfg.Model.Name || fr.Atoms() != r.cfg.Model.Atoms {
		return fmt.Errorf("pair %d frame %d: header mismatch (step=%d model=%q atoms=%d)",
			pair, f, fr.Step, fr.Model, fr.Atoms())
	}
	return nil
}

// cpuTime converts a byte count at a processing rate into compute time.
func cpuTime(n int64, bytesPerSec float64) time.Duration {
	return time.Duration(float64(n) / bytesPerSec * float64(time.Second))
}

// frameMark emits a zero-length workflow span marking a frame's production
// or consumption. It is outlined so the span, passed on the stack, does not
// widen the frames of runProducer and runConsumer: every coroutine parks
// below one of them, and a frame a few words wider keeps more parked
// stacks above the quarter-full mark that lets a GC shrink them
// (DESIGN.md §3c).
//
//go:noinline
func frameMark(p *sim.Proc, name string, bytes int64, attr string) {
	p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "workflow", Name: name,
		Start: p.Now(), Bytes: bytes, Attr: attr})
}
