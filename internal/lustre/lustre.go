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

	// noise is the OST's background-interference process, when one runs
	// (StartNoise).
	noise *noise
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

// layouts is the engines' free list of layout tables.
var layouts = sim.NewFreeList[map[string]int]()

// New builds a Lustre instance with its MDS on mdsNode and one OST on each
// of ostNodes. Server nodes should be distinct from compute nodes, as in a
// real center. Its file table and layouts are lent by the cluster's engine
// (sim.LendMap): the instance is valid until the engine's next Reset.
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
		tree:    vfs.NewTree(cl.Engine()),
		layout:  sim.LendMap(layouts, cl.Engine()),
	}
	for i, n := range ostNodes {
		f.osts = append(f.osts, &ost{
			node: n,
			srv:  sim.NewResource(cl.Engine(), fmt.Sprintf("%s/ost%d", n.Name(), i), 1),
		})
	}
	return f
}

// Tree exposes the file table (for invariant checks in tests).
func (f *FS) Tree() *vfs.Tree { return f.tree }

// OSTs returns the number of object storage targets.
func (f *FS) OSTs() int { return len(f.osts) }

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

// server returns the node and service queue of OST o, or of the MDS when
// o is nil.
func (f *FS) server(o *ost) (*cluster.Node, *sim.Resource) {
	if o == nil {
		return f.mdsNode, f.mds
	}
	return o.node, o.srv
}

// down reports whether the server of o (the MDS when o is nil) is down
// now, so that an RPC to it would go unanswered: the one case in which
// await has anything to do. On healthy runs it is two compares.
func (f *FS) down(p *sim.Proc, o *ost) bool {
	if o == nil {
		return !f.mdsFailedOver && p.Now() < f.mdsDownUntil
	}
	return !o.failedOver && p.Now() < o.downUntil
}

// await applies the Lustre client recovery policy for the server of o
// (the MDS when o is nil), which may be down: an RPC sent to it gets no
// reply within RPCTimeout and is resent under the Retry backoff; exhausted
// resends trigger failover to the standby (FailoverDelay once, then normal
// service for the rest of the run).
func (f *FS) await(p *sim.Proc, o *ost) {
	if !f.down(p, o) {
		return
	}
	downUntil, failedOver := &f.mdsDownUntil, &f.mdsFailedOver
	if o != nil {
		downUntil, failedOver = &o.downUntil, &o.failedOver
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

// sent counts an RPC to o (the MDS when o is nil) as it goes out.
func (f *FS) sent(o *ost, reqBytes, respBytes int64) {
	if o == nil {
		f.MDSOps++
		return
	}
	f.OSTOps++
	o.bytes += reqBytes + respBytes
}

// replied records an RPC to o (the MDS when o is nil), sent at start and
// carrying bytes both ways, once its reply is in: its latency and its span.
func (f *FS) replied(p *sim.Proc, o *ost, start sim.Time, bytes int64) {
	if o == nil {
		f.mdsLat.Observe(p.Now() - start)
		p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "lustre", Name: "mds_rpc",
			Start: start, Dur: p.Now() - start})
		return
	}
	f.ostLat.Observe(p.Now() - start)
	p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "lustre", Name: "ost_rpc",
		Start: start, Dur: p.Now() - start, Bytes: bytes, Attr: o.srv.Name()})
}

// rpc charges one round trip from the client node to o (the MDS when o is
// nil), waiting out an outage of its server first. File reads and writes
// run their RPCs as a fileOp chain instead; this blocking form serves the
// single-RPC calls.
func (f *FS) rpc(p *sim.Proc, from *cluster.Node, o *ost, reqBytes, respBytes int64, service time.Duration) {
	f.await(p, o)
	f.sent(o, reqBytes, respBytes)
	start := p.Now()
	node, srv := f.server(o)
	f.cl.RPC(p, from, node, reqBytes, respBytes, srv, service)
	f.replied(p, o, start, reqBytes+respBytes)
}

// mdsRPC charges one metadata round trip from the client node.
func (f *FS) mdsRPC(p *sim.Proc, from *cluster.Node) {
	f.rpc(p, from, nil, 256, 128, f.params.MDSService)
}

// ostFor returns the OST index for chunk k of a file whose layout starts
// at first.
func (f *FS) ostFor(first, k int) *ost {
	return f.osts[(first+k)%len(f.osts)]
}

func bwTime(n int64, bw float64) time.Duration {
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// fileOp is one WriteFile or ReadFile in flight: a flat state machine run
// as the calling process's Inline chain, one cluster.RPCThen per RPC. Its
// RPCs are the POSIX call's in order: the MDS open/create (or lookup),
// the file's stripe chunks to its OSTs (RPC pipeline depth 1, as a single
// writer sees: n bytes in stripe-size pieces, the last one short, one
// empty chunk for an empty file, the per-file object setup on the first),
// and for a write the MDS close. Each RPC is counted when sent and
// recorded when its reply is in, and the layout is resolved after the
// first MDS reply (another client may assign nextOST before it), as the
// blocking sequence did, so the events, spans and counters are that
// sequence's one for one (TestFileOpChainMatchesBlockingSequence keeps it
// as the reference). Before each RPC the chain checks the server: when it
// is down the chain stops at that step, and run waits the outage out on
// the goroutine (await) and re-enters it there.
type fileOp struct {
	c     *Client
	path  string
	write bool
	pl    vfs.Payload // the payload written, or the one a read found
	found bool        // a read's lookup found the file
	phase opPhase
	first int   // the layout's first OST
	k     int   // the next chunk
	rest  int64 // bytes not yet sent in a chunk

	// The RPC in flight, or the down server the chain stopped at.
	o     *ost // nil for the MDS
	sent  bool // o's reply is due
	start sim.Time
	bytes int64

	step func(p *sim.Proc) // advance, bound once so no step allocates
}

type opPhase uint8

const (
	opOpen   opPhase = iota // send the MDS open/create or lookup
	opLayout                // MDS replied: resolve the layout
	opChunk                 // send the next chunk's OST RPC
	opClose                 // send the MDS close (writes)
	opDone                  // the last reply is in (or a read found nothing)
)

// fileOps is the engine's free list of fileOp states, for the reasons
// cluster's wire list gives. An op unwound by a failed run is never
// returned: its state may still be referenced as a pending continuation.
var fileOps = sim.NewFreeList[fileOp]()

// newFileOp returns a fileOp state for one call of c on path.
func newFileOp(c *Client, path string, write bool) *fileOp {
	op := fileOps.Get(c.fs.cl.Engine())
	if op == nil {
		op = new(fileOp)
		op.step = op.advance
	}
	op.c, op.path, op.write = c, path, write
	return op
}

// free returns op to the free list, dropping its references.
func (op *fileOp) free() {
	e := op.c.fs.cl.Engine()
	*op = fileOp{step: op.step}
	fileOps.Put(e, op)
}

// run runs op to its end on p: one Inline chain on healthy runs, re-entered
// after each wait for a down server.
func (op *fileOp) run(p *sim.Proc) {
	for {
		p.Inline(op.step)
		if op.phase == opDone {
			return
		}
		op.c.fs.await(p, op.o)
	}
}

// advance records the reply just in, if any, and runs the chain on to its
// next RPC, or to its end.
func (op *fileOp) advance(p *sim.Proc) {
	f := op.c.fs
	if op.sent {
		op.sent = false
		f.replied(p, op.o, op.start, op.bytes)
	}
	switch op.phase {
	case opOpen:
		op.call(p, nil, 256, 128, f.params.MDSService, opLayout)
	case opLayout:
		if op.write {
			first, ok := f.layout[op.path]
			if !ok {
				first = f.nextOST
				f.nextOST = (f.nextOST + 1) % len(f.osts)
				f.layout[op.path] = first
			}
			op.first = first
		} else {
			if op.pl, op.found = f.tree.Get(op.path); !op.found {
				op.phase = opDone
				return
			}
			op.first = f.layout[op.path]
		}
		op.rest = op.pl.Size()
		op.phase = opChunk
		op.chunk(p)
	case opChunk:
		op.chunk(p)
	case opClose:
		op.call(p, nil, 256, 128, f.params.MDSService, opDone)
	}
}

// chunk sends the next stripe chunk's OST RPC.
func (op *fileOp) chunk(p *sim.Proc) {
	f := op.c.fs
	c := min(op.rest, f.params.StripeSize)
	o := f.ostFor(op.first, op.k%f.params.StripeCount)
	req, resp := int64(256), c
	service := f.params.OSTService
	if op.write {
		req, resp = c, 64
		service += bwTime(c, f.params.OSTWriteBandwidth)
		if op.k == 0 {
			service += f.params.PerFileWriteOverhead
		}
	} else {
		service += bwTime(c, f.params.OSTReadBandwidth)
		if op.k == 0 {
			service += f.params.PerFileReadOverhead
		}
	}
	next := opChunk
	if op.rest == c {
		next = opDone
		if op.write {
			next = opClose
		}
	}
	if op.call(p, o, req, resp, service, next) {
		op.rest -= c
		op.k++
	}
}

// call sends op's next RPC, to o (the MDS when o is nil), going on in
// phase next when its reply is in, and reports whether it did: when o's
// server is down the chain stops instead, at the same step.
func (op *fileOp) call(p *sim.Proc, o *ost, reqBytes, respBytes int64, service time.Duration, next opPhase) bool {
	f := op.c.fs
	op.o = o
	if f.down(p, o) {
		return false
	}
	f.sent(o, reqBytes, respBytes)
	op.phase, op.sent, op.start, op.bytes = next, true, p.Now(), reqBytes+respBytes
	node, srv := f.server(o)
	f.cl.RPCThen(p, op.c.node, node, reqBytes, respBytes, srv, service, op.step)
	return true
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

// WriteFile implements vfs.FS: MDS create + striped OST writes + MDS close,
// as one fileOp chain. The payload is stored by reference, never copied.
func (c *Client) WriteFile(p *sim.Proc, path string, pl vfs.Payload) error {
	path = vfs.Clean(path)
	wStart := p.Now()
	p.CritBegin("lustre", "write", trace.ClassDetail)
	defer p.CritEnd()
	op := newFileOp(c, path, true)
	op.pl = pl
	op.run(p)
	op.free()
	c.fs.tree.Put(path, pl)
	p.CritProduce(path, pl.Size())
	p.CritHop(path, "write", wStart, pl.Size())
	return nil
}

// ReadFile implements vfs.FS: MDS lookup + striped OST reads, as one
// fileOp chain.
func (c *Client) ReadFile(p *sim.Proc, path string) (vfs.Payload, error) {
	path = vfs.Clean(path)
	rStart := p.Now()
	p.CritBegin("lustre", "read", trace.ClassDetail)
	defer p.CritEnd()
	op := newFileOp(c, path, false)
	op.run(p)
	pl, found := op.pl, op.found
	op.free()
	if !found {
		return vfs.Payload{}, vfs.PathError("read", path, vfs.ErrNotExist)
	}
	p.CritDepend(path, "read")
	p.CritHop(path, "read", rStart, pl.Size())
	return pl, nil
}

var _ vfs.FS = (*Client)(nil)
