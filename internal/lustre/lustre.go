// Package lustre models a Lustre-like parallel filesystem: a metadata
// server (MDS), a set of object storage targets (OSTs) holding striped file
// data, and per-node clients that translate POSIX calls into RPCs over the
// cluster fabric.
//
// The model captures the costs that dominate the paper's Lustre results:
// every metadata operation is a queued MDS round trip, every byte crosses
// the network to a shared server, small files cannot exploit striping
// parallelism, and many concurrent clients contend at the MDS and OSTs
// (plus optional background "other jobs" interference).
package lustre

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Params is the Lustre cost model.
type Params struct {
	StripeSize  int64 // bytes per stripe chunk (Lustre default: 1 MiB)
	StripeCount int   // OSTs a file is striped over (Lustre default: 1)

	MDSService time.Duration // MDS time per metadata op
	OSTService time.Duration // OST per-RPC overhead (request processing)

	// PerFileWriteOverhead / PerFileReadOverhead model the per-file OST
	// costs that dominate small-file I/O on Lustre (object layout
	// instantiation, extent-lock acquisition, grant negotiation); charged
	// once per file on the first chunk's OST.
	PerFileWriteOverhead time.Duration
	PerFileReadOverhead  time.Duration

	OSTWriteBandwidth float64 // bytes/s of one OST's backing storage
	OSTReadBandwidth  float64

	// Background interference ("other jobs" on a shared center-wide
	// filesystem). When BackgroundLoad > 0, StartNoise spawns per-OST noise
	// processes that keep roughly that fraction of each OST busy.
	BackgroundLoad float64

	// RPCTimeout is the client's deadline on an RPC to a down MDS/OSS;
	// Lustre clients see no reply and resend. Zero defaults to 200ms.
	RPCTimeout time.Duration
	// Retry is the capped-exponential backoff between resends; exhausted
	// retries trigger failover. A zero policy defaults to
	// {Base: 25ms, Cap: 400ms, Max: 4}.
	Retry faults.Backoff
	// FailoverDelay is the one-time cost of switching to the standby
	// MDS/OSS (import re-establishment, lock recovery). Zero defaults
	// to 800ms.
	FailoverDelay time.Duration
}

// DefaultParams returns a model of a mid-size production Lustre system as
// seen from one job: fast in aggregate, but with per-stream costs far above
// node-local NVMe.
func DefaultParams() Params {
	return Params{
		StripeSize:           1 << 20,
		StripeCount:          1,
		MDSService:           220 * time.Microsecond,
		OSTService:           1400 * time.Microsecond,
		PerFileWriteOverhead: 1800 * time.Microsecond,
		PerFileReadOverhead:  2400 * time.Microsecond,
		OSTWriteBandwidth:    1.15e9,
		OSTReadBandwidth:     1.3e9,
		BackgroundLoad:       0.12,
		RPCTimeout:           200 * time.Millisecond,
		Retry:                faults.Backoff{Base: 25 * time.Millisecond, Cap: 400 * time.Millisecond, Max: 4},
		FailoverDelay:        800 * time.Millisecond,
	}
}

// ost is one object storage target: a service queue on a server node.
type ost struct {
	node *cluster.Node
	srv  *sim.Resource

	// bytes accumulates payload moved through this OST (request + response),
	// for the sampled per-OST bandwidth and imbalance series.
	bytes int64

	// downUntil marks the serving OSS down until the given virtual time
	// (fault injection); failedOver means clients have switched to the
	// standby OSS, which serves at normal cost for the rest of the run.
	downUntil  sim.Time
	failedOver bool
}

// FS is the Lustre filesystem instance (servers + file table).
type FS struct {
	cl      *cluster.Cluster
	params  Params
	mdsNode *cluster.Node
	mds     *sim.Resource
	osts    []*ost
	tree    *vfs.Tree
	layout  map[string]int // path -> index of first OST
	nextOST int

	noiseStop bool

	// MDS outage state, mirroring the per-OST fields.
	mdsDownUntil  sim.Time
	mdsFailedOver bool

	MDSOps int64
	OSTOps int64

	// mdsLat/ostLat are sampled RPC latency histograms (nil when no metrics
	// registry is attached — Observe on nil is free).
	mdsLat *metrics.Histogram
	ostLat *metrics.Histogram

	// Recovery accumulates the run's fault-recovery activity (timeouts,
	// resends, failovers); all zero on healthy runs.
	Recovery faults.Metrics
}

// New builds a Lustre instance with its MDS on mdsNode and one OST on each
// of ostNodes. Server nodes should be distinct from compute nodes, as in a
// real center.
func New(cl *cluster.Cluster, mdsNode *cluster.Node, ostNodes []*cluster.Node, params Params) *FS {
	if len(ostNodes) == 0 {
		panic("lustre: need at least one OST")
	}
	if params.StripeSize <= 0 {
		panic("lustre: stripe size must be positive")
	}
	if params.StripeCount < 1 {
		params.StripeCount = 1
	}
	if params.StripeCount > len(ostNodes) {
		params.StripeCount = len(ostNodes)
	}
	// Recovery knobs only matter when a server is actually down, so
	// defaulting them here cannot change healthy-run timelines.
	if params.RPCTimeout <= 0 {
		params.RPCTimeout = 200 * time.Millisecond
	}
	if params.Retry == (faults.Backoff{}) {
		params.Retry = faults.Backoff{Base: 25 * time.Millisecond, Cap: 400 * time.Millisecond, Max: 4}
	}
	if params.FailoverDelay <= 0 {
		params.FailoverDelay = 800 * time.Millisecond
	}
	f := &FS{
		cl:      cl,
		params:  params,
		mdsNode: mdsNode,
		mds:     sim.NewResource(cl.Engine(), mdsNode.Name()+"/mds", 1),
		tree:    vfs.NewTree(),
		layout:  make(map[string]int),
	}
	for i, n := range ostNodes {
		f.osts = append(f.osts, &ost{
			node: n,
			srv:  sim.NewResource(cl.Engine(), fmt.Sprintf("%s/ost%d", n.Name(), i), 1),
		})
	}
	return f
}

// Params returns the active cost model.
func (f *FS) Params() Params { return f.params }

// Tree exposes the file table (for invariant checks in tests).
func (f *FS) Tree() *vfs.Tree { return f.tree }

// OSTs returns the number of object storage targets.
func (f *FS) OSTs() int { return len(f.osts) }

// MDSQueue exposes the MDS service queue.
func (f *FS) MDSQueue() *sim.Resource { return f.mds }

// StartNoise spawns background-interference processes, one per OST, that
// keep ~BackgroundLoad of each OST busy with bursty foreign I/O. Call once
// per engine before Run if interference is wanted.
func (f *FS) StartNoise() {
	if f.params.BackgroundLoad <= 0 {
		return
	}
	// Busy bursts of mean 2 ms separated by idle gaps sized to hit the
	// target utilization.
	burst := 2 * time.Millisecond
	gap := time.Duration(float64(burst) * (1 - f.params.BackgroundLoad) / f.params.BackgroundLoad)
	for i, o := range f.osts {
		nz := &noise{f: f, srv: o.srv, gap: gap, burst: burst}
		nz.step = nz.advance
		f.cl.Engine().SpawnFunc(fmt.Sprintf("lustre-noise-%d", i), nz.step)
	}
}

// noise is one OST's background-interference process: a goroutine-free
// state machine that sleeps an exponential gap, queues at the OST, holds
// it for an exponential burst, and repeats until StopNoise (checked after
// each burst) or a million bursts. Call StopNoise when the measured
// workload has drained so the engine can finish.
type noise struct {
	f          *FS
	srv        *sim.Resource
	gap, burst time.Duration // means of the exponential draws
	phase      noisePhase
	hold       time.Duration // the burst drawn when the gap ended
	bursts     int
	step       func(p *sim.Proc) // advance, bound once so no event allocates
}

type noisePhase uint8

const (
	noiseStart  noisePhase = iota // first delivery, at spawn time
	noiseGap                      // sleeping out the idle gap
	noiseQueued                   // waiting for the OST
	noiseBusy                     // holding the OST for the burst
)

// advance runs the continuation due in the current phase. Each phase ends
// where the goroutine loop it replaces yielded, so the events, their
// sequence numbers and the random draws (gap, then burst before the
// acquire) are the loop's one for one.
func (nz *noise) advance(p *sim.Proc) {
	switch nz.phase {
	case noiseStart:
		// Background for the critical-path extractor: the run is over
		// when the workflow finishes, not when noise winds down.
		p.CritBackground()
		p.CritBegin("lustre", "background_noise", trace.ClassDetail)
		nz.idle(p)
	case noiseGap:
		nz.hold = p.Rand().Exp(nz.burst)
		nz.phase = noiseQueued
		nz.srv.AcquireThen(p, 1, nz.step)
	case noiseQueued:
		nz.phase = noiseBusy
		p.SleepThen(nz.hold, nz.step)
	case noiseBusy:
		nz.srv.Release(1)
		if nz.bursts++; nz.f.noiseStop || nz.bursts == 1_000_000 {
			return // no successor: the process ends now
		}
		nz.idle(p)
	}
}

// idle starts an idle gap.
func (nz *noise) idle(p *sim.Proc) {
	nz.phase = noiseGap
	p.SleepThen(p.Rand().Exp(nz.gap), nz.step)
}

// StopNoise asks noise processes to exit at their next wakeup.
func (f *FS) StopNoise() { f.noiseStop = true }

// FailOST takes OST i's serving OSS down for d of virtual time. Clients
// whose RPCs hit the outage time out, resend under backoff, and eventually
// fail over to the standby OSS.
func (f *FS) FailOST(i int, d time.Duration) {
	o := f.osts[i%len(f.osts)]
	if until := f.cl.Engine().Now() + d; until > o.downUntil {
		o.downUntil = until
	}
}

// FailMDS takes the metadata server down for d of virtual time.
func (f *FS) FailMDS(d time.Duration) {
	if until := f.cl.Engine().Now() + d; until > f.mdsDownUntil {
		f.mdsDownUntil = until
	}
}

// await applies the Lustre client recovery policy for a server that may be
// down: an RPC sent to it gets no reply within RPCTimeout and is resent
// under the Retry backoff; exhausted resends trigger failover to the standby
// (FailoverDelay once, then normal service for the rest of the run). When
// the server is up — the only case on healthy runs — this is two compares.
func (f *FS) await(p *sim.Proc, downUntil *sim.Time, failedOver *bool) {
	if *failedOver || p.Now() >= *downUntil {
		return
	}
	for attempt := 0; ; attempt++ {
		f.Recovery.Timeouts++
		f.Recovery.RecoveryTime += f.params.RPCTimeout
		p.Sleep(f.params.RPCTimeout)
		p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "lustre", Name: "rpc_timeout",
			Class: trace.ClassRecovery, Start: p.Now() - f.params.RPCTimeout, Dur: f.params.RPCTimeout})
		if attempt >= f.params.Retry.Max {
			break
		}
		f.Recovery.Retries++
		delay := f.params.Retry.Delay(attempt)
		f.Recovery.RecoveryTime += delay
		p.Sleep(delay)
		p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "lustre", Name: "rpc_backoff",
			Class: trace.ClassRecovery, Start: p.Now() - delay, Dur: delay})
		if p.Now() >= *downUntil {
			// The server came back during backoff; the resend succeeds.
			return
		}
	}
	*failedOver = true
	f.Recovery.Failovers++
	f.Recovery.RecoveryTime += f.params.FailoverDelay
	p.Sleep(f.params.FailoverDelay)
	p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "lustre", Name: "failover",
		Class: trace.ClassRecovery, Start: p.Now() - f.params.FailoverDelay, Dur: f.params.FailoverDelay})
}

// mdsRPC charges one metadata round trip from the client node, waiting out
// an MDS outage first.
func (f *FS) mdsRPC(p *sim.Proc, from *cluster.Node) {
	f.await(p, &f.mdsDownUntil, &f.mdsFailedOver)
	f.MDSOps++
	start := p.Now()
	f.cl.RPC(p, from, f.mdsNode, 256, 128, f.mds, f.params.MDSService)
	f.mdsLat.Observe(p.Now() - start)
	p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "lustre", Name: "mds_rpc",
		Start: start, Dur: p.Now() - start})
}

// ostRPC charges one OST round trip, waiting out an OSS outage first.
func (f *FS) ostRPC(p *sim.Proc, from *cluster.Node, o *ost, reqBytes, respBytes int64, service time.Duration) {
	f.await(p, &o.downUntil, &o.failedOver)
	f.OSTOps++
	o.bytes += reqBytes + respBytes
	start := p.Now()
	f.cl.RPC(p, from, o.node, reqBytes, respBytes, o.srv, service)
	f.ostLat.Observe(p.Now() - start)
	p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "lustre", Name: "ost_rpc",
		Start: start, Dur: p.Now() - start, Bytes: reqBytes + respBytes, Attr: o.srv.Name()})
}

// ostFor returns the OST index for chunk k of a file whose layout starts
// at first.
func (f *FS) ostFor(first, k int) *ost {
	return f.osts[(first+k)%len(f.osts)]
}

// writeChunks pushes data chunks to the file's OSTs in order (RPC pipeline
// depth 1, as a single POSIX writer sees): n bytes in stripe-size pieces,
// the last one short, and one empty chunk for an empty file. The first
// chunk carries the per-file object setup overhead.
func (f *FS) writeChunks(p *sim.Proc, from *cluster.Node, first int, n int64) {
	for k := 0; k == 0 || n > 0; k++ {
		c := min(n, f.params.StripeSize)
		n -= c
		o := f.ostFor(first, k%f.params.StripeCount)
		service := f.params.OSTService + bwTime(c, f.params.OSTWriteBandwidth)
		if k == 0 {
			service += f.params.PerFileWriteOverhead
		}
		f.ostRPC(p, from, o, c, 64, service)
	}
}

// readChunks pulls data chunks from the file's OSTs in order, cut as
// writeChunks cuts them.
func (f *FS) readChunks(p *sim.Proc, from *cluster.Node, first int, n int64) {
	for k := 0; k == 0 || n > 0; k++ {
		c := min(n, f.params.StripeSize)
		n -= c
		o := f.ostFor(first, k%f.params.StripeCount)
		service := f.params.OSTService + bwTime(c, f.params.OSTReadBandwidth)
		if k == 0 {
			service += f.params.PerFileReadOverhead
		}
		f.ostRPC(p, from, o, 256, c, service)
	}
}

func bwTime(n int64, bw float64) time.Duration {
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// Client returns a vfs.FS view of the filesystem for processes on node.
func (f *FS) Client(node *cluster.Node) *Client {
	return &Client{fs: f, node: node}
}

// Client is a per-node Lustre mount.
type Client struct {
	fs   *FS
	node *cluster.Node
}

// Name implements vfs.FS.
func (c *Client) Name() string { return "lustre" }

// Node returns the client's node.
func (c *Client) Node() *cluster.Node { return c.node }

// WriteFile implements vfs.FS: MDS create + striped OST writes + MDS close.
// The payload is stored by reference, never copied.
func (c *Client) WriteFile(p *sim.Proc, path string, pl vfs.Payload) error {
	path = vfs.Clean(path)
	f := c.fs
	wStart := p.Now()
	p.CritBegin("lustre", "write", trace.ClassDetail)
	defer p.CritEnd()
	f.mdsRPC(p, c.node) // open/create with layout allocation
	first, ok := f.layout[path]
	if !ok {
		first = f.nextOST
		f.nextOST = (f.nextOST + 1) % len(f.osts)
		f.layout[path] = first
	}
	f.writeChunks(p, c.node, first, pl.Size())
	f.mdsRPC(p, c.node) // close: size/attr update at the MDS
	f.tree.Put(path, pl)
	p.CritProduce(path, pl.Size())
	p.CritHop(path, "write", wStart, pl.Size())
	return nil
}

// ReadFile implements vfs.FS: MDS lookup + striped OST reads.
func (c *Client) ReadFile(p *sim.Proc, path string) (vfs.Payload, error) {
	path = vfs.Clean(path)
	f := c.fs
	rStart := p.Now()
	p.CritBegin("lustre", "read", trace.ClassDetail)
	defer p.CritEnd()
	f.mdsRPC(p, c.node)
	pl, ok := f.tree.Get(path)
	if !ok {
		return vfs.Payload{}, vfs.PathError("read", path, vfs.ErrNotExist)
	}
	f.readChunks(p, c.node, f.layout[path], pl.Size())
	p.CritDepend(path, "read")
	p.CritHop(path, "read", rStart, pl.Size())
	return pl, nil
}

// Stat implements vfs.FS: one MDS round trip.
func (c *Client) Stat(p *sim.Proc, path string) (vfs.FileInfo, error) {
	path = vfs.Clean(path)
	f := c.fs
	f.mdsRPC(p, c.node)
	sz, ok := f.tree.Size(path)
	if !ok {
		return vfs.FileInfo{}, vfs.PathError("stat", path, vfs.ErrNotExist)
	}
	return vfs.FileInfo{Path: path, Size: sz}, nil
}

// Unlink implements vfs.FS: MDS unlink + object destroy on the first OST.
func (c *Client) Unlink(p *sim.Proc, path string) error {
	path = vfs.Clean(path)
	f := c.fs
	f.mdsRPC(p, c.node)
	first, had := f.layout[path]
	if !f.tree.Remove(path) {
		return vfs.PathError("unlink", path, vfs.ErrNotExist)
	}
	if had {
		f.ostRPC(p, c.node, f.osts[first], 256, 64, f.params.OSTService/4)
		delete(f.layout, path)
	}
	return nil
}

var _ vfs.FS = (*Client)(nil)
