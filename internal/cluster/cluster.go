// Package cluster models the hardware of an HPC system: compute nodes with
// node-local NVMe SSDs and NICs, connected by a switched fabric. The models
// are queueing models over the sim kernel: each device is a FIFO resource
// and each operation charges latency plus size/bandwidth service time, so
// contention between concurrent processes emerges naturally.
//
// The default parameters (CoronaProfile) approximate LLNL's Corona system
// used in the paper: AMD EPYC nodes with 3.5 TB NVMe SSDs on an InfiniBand
// QDR interconnect.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SSDSpec parameterizes a node-local NVMe device.
type SSDSpec struct {
	ReadBandwidth  float64       // bytes per second
	WriteBandwidth float64       // bytes per second
	ReadLatency    time.Duration // fixed per-operation latency
	WriteLatency   time.Duration
	Channels       int // concurrent operations served at full speed
}

// NICSpec parameterizes a node's network interface.
type NICSpec struct {
	Bandwidth float64 // bytes per second on the wire
	Overhead  time.Duration
}

// FabricSpec parameterizes the switched interconnect.
type FabricSpec struct {
	HopLatency time.Duration // propagation + switching per message
}

// Spec is a full cluster hardware profile.
type Spec struct {
	Nodes  int
	SSD    SSDSpec
	NIC    NICSpec
	Fabric FabricSpec

	// QueueHint pre-sizes each device's wait queue for the expected number
	// of concurrently blocked processes (0 = size on demand). Purely a
	// host-memory optimization; it never changes simulated behavior.
	QueueHint int
}

// CoronaProfile returns a profile approximating LLNL Corona (the paper's
// testbed): 3.5 TB NVMe node-local SSDs and an InfiniBand QDR fabric.
// Bandwidths are effective application-level figures, not datasheet peaks.
func CoronaProfile(nodes int) Spec {
	return Spec{
		Nodes: nodes,
		SSD: SSDSpec{
			ReadBandwidth:  3.0e9,
			WriteBandwidth: 2.0e9,
			ReadLatency:    60 * time.Microsecond,
			WriteLatency:   80 * time.Microsecond,
			Channels:       4,
		},
		NIC: NICSpec{
			Bandwidth: 3.2e9, // IB QDR 4x ~ 32 Gbit/s usable
			Overhead:  3 * time.Microsecond,
		},
		Fabric: FabricSpec{
			HopLatency: 1200 * time.Nanosecond,
		},
	}
}

// SSD is a node-local storage device.
type SSD struct {
	spec SSDSpec
	dev  *sim.Resource

	// degrade multiplies service times (fault injection; 1 = healthy).
	degrade float64
	// failed makes every operation return ErrDeviceFailed (fault
	// injection; repaired devices serve again).
	failed bool

	BytesRead    int64
	BytesWritten int64
	FailedOps    int64

	// readLat/writeLat are sampled latency histograms, shared across the
	// cluster's SSDs (nil when no metrics registry is attached — Observe on
	// nil is free).
	readLat  *metrics.Histogram
	writeLat *metrics.Histogram
}

// Degrade multiplies all subsequent service times by factor (>= 1).
// It models a failing or throttled device for straggler studies.
func (s *SSD) Degrade(factor float64) {
	if factor < 1 {
		panic("cluster: SSD degradation factor < 1")
	}
	s.degrade = factor
}

// DegradeFactor returns the current service-time multiplier (1 = healthy).
func (s *SSD) DegradeFactor() float64 {
	if s.degrade < 1 {
		return 1
	}
	return s.degrade
}

// Fail makes every subsequent operation return an error wrapping
// faults.ErrDeviceFailed until Repair is called.
func (s *SSD) Fail() { s.failed = true }

// Repair returns a failed device to service.
func (s *SSD) Repair() { s.failed = false }

// fail charges the caller the device's fixed latency (the time a request
// takes to come back with EIO) and returns the wrapped sentinel.
func (s *SSD) fail(p *sim.Proc, op string, lat time.Duration) error {
	s.FailedOps++
	p.Sleep(lat)
	p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "ssd", Name: "io_error",
		Class: trace.ClassRecovery, Start: p.Now() - lat, Dur: lat, Attr: s.dev.Name()})
	return fmt.Errorf("cluster: %s %s: %w", s.dev.Name(), op, faults.ErrDeviceFailed)
}

// Read charges the device for an n-byte read and returns time spent. A
// failed device returns an error wrapping faults.ErrDeviceFailed instead.
func (s *SSD) Read(p *sim.Proc, n int64) (time.Duration, error) {
	if n < 0 {
		panic("cluster: negative read size")
	}
	if s.failed {
		return 0, s.fail(p, "read", s.spec.ReadLatency)
	}
	s.BytesRead += n
	service := s.scale(s.spec.ReadLatency + bwTime(n, s.spec.ReadBandwidth))
	elapsed := s.dev.Use(p, service)
	s.readLat.Observe(elapsed)
	p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "ssd", Name: "read",
		Start: p.Now() - elapsed, Dur: elapsed, Bytes: n, Attr: s.dev.Name()})
	return elapsed, nil
}

// Write charges the device for an n-byte write and returns time spent. A
// failed device returns an error wrapping faults.ErrDeviceFailed instead.
func (s *SSD) Write(p *sim.Proc, n int64) (time.Duration, error) {
	if n < 0 {
		panic("cluster: negative write size")
	}
	if s.failed {
		return 0, s.fail(p, "write", s.spec.WriteLatency)
	}
	s.BytesWritten += n
	service := s.scale(s.spec.WriteLatency + bwTime(n, s.spec.WriteBandwidth))
	elapsed := s.dev.Use(p, service)
	s.writeLat.Observe(elapsed)
	p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "ssd", Name: "write",
		Start: p.Now() - elapsed, Dur: elapsed, Bytes: n, Attr: s.dev.Name()})
	return elapsed, nil
}

func (s *SSD) scale(d time.Duration) time.Duration {
	if s.degrade > 1 {
		return time.Duration(float64(d) * s.degrade)
	}
	return d
}

// Node is one compute node: an SSD and a NIC.
type Node struct {
	ID   int
	SSD  *SSD
	nic  *sim.Resource
	name string // "node<ID>", spelt once by New

	// nicDegrade multiplies this NIC's wire service times (fault
	// injection; values <= 1 mean healthy).
	nicDegrade float64
	// linkDownUntil stalls transfers touching this node until the given
	// virtual time (fault injection; zero means the link is up).
	linkDownUntil sim.Time
	// stallTime accumulates this node's share of link-outage waits (the
	// per-node split of Cluster.LinkStallTime).
	stallTime time.Duration
	// train is the message whose segment train holds this node's NIC, or
	// nil (see wire.train).
	train *wire

	cl *Cluster
}

// DegradeNIC multiplies all subsequent wire service time at this node's
// NIC by factor (>= 1), modelling a flaky link or misbehaving HCA. A
// segment's wire time is scaled when the segment is requested, so a
// segment train holding the NIC splits first: the segments it booked
// ahead are requested again under the new factor.
func (n *Node) DegradeNIC(factor float64) {
	if factor < 1 {
		panic("cluster: NIC degradation factor < 1")
	}
	if n.train != nil && factor != n.NICDegradeFactor() {
		n.train.split()
	}
	n.nicDegrade = factor
}

// nicWatch is a node as the watcher of its NIC (sim.Resource's Watch):
// an acquire splits the segment train that holds the NIC, if one does,
// since it queues behind it. Reads leave the train alone: it holds the
// NIC throughout, so they find the NIC as the per-segment model would.
type nicWatch Node

func (w *nicWatch) Touch(acquire bool) {
	if n := (*Node)(w); acquire && n.train != nil {
		n.train.split()
	}
}

// NICDegradeFactor returns the current wire-time multiplier (1 = healthy).
func (n *Node) NICDegradeFactor() float64 {
	if n.nicDegrade < 1 {
		return 1
	}
	return n.nicDegrade
}

// FailLinkUntil takes the node's link down until the given virtual time.
// Transfers touching the node during the outage stall until it ends — the
// InfiniBand-style retransmission view: the fabric hides the loss from the
// application, which only sees the lost time (recorded in LinkStalls /
// LinkStallTime on the cluster).
func (n *Node) FailLinkUntil(t sim.Time) {
	if t > n.linkDownUntil {
		n.linkDownUntil = t
	}
}

func (n *Node) nicScale(d time.Duration) time.Duration {
	if n.nicDegrade > 1 {
		return time.Duration(float64(d) * n.nicDegrade)
	}
	return d
}

// Name returns a stable display name, "node<ID>".
func (n *Node) Name() string { return n.name }

// Engine returns the engine the node's cluster runs on.
func (n *Node) Engine() *sim.Engine { return n.cl.e }

// Cluster is a set of nodes joined by a fabric.
type Cluster struct {
	Spec  Spec
	nodes []*Node
	e     *sim.Engine

	BytesOnWire int64
	Transfers   int64

	// LinkStalls / LinkStallTime account transfers that had to wait out a
	// link outage (fault injection; both zero on healthy fabrics).
	LinkStalls    int64
	LinkStallTime time.Duration
}

// New builds a cluster on the given engine.
func New(e *sim.Engine, spec Spec) *Cluster {
	if spec.Nodes < 1 {
		panic("cluster: need at least one node")
	}
	if spec.SSD.Channels < 1 {
		spec.SSD.Channels = 1
	}
	c := &Cluster{Spec: spec, e: e}
	c.nodes = make([]*Node, 0, spec.Nodes)
	for i := 0; i < spec.Nodes; i++ {
		name := fmt.Sprintf("node%d", i)
		n := &Node{
			ID: i,
			SSD: &SSD{
				spec: spec.SSD,
				dev:  sim.NewResource(e, name+"/ssd", spec.SSD.Channels),
			},
			nic:  sim.NewResource(e, name+"/nic", 1),
			name: name,
			cl:   c,
		}
		n.nic.Watch((*nicWatch)(n))
		if spec.QueueHint > 0 {
			n.SSD.dev.SetQueueHint(spec.QueueHint)
			n.nic.SetQueueHint(spec.QueueHint)
		}
		c.nodes = append(c.nodes, n)
	}
	return c
}

// Engine returns the simulation engine the cluster runs on.
func (c *Cluster) Engine() *sim.Engine { return c.e }

// Reset returns the cluster to its just-built state: traffic counters,
// fault-injection state (degradation factors, link outages, failed
// devices), and every device resource are cleared, while the node and
// resource structures — including their queue backing arrays — are kept.
// The pooled-reuse contract (DESIGN.md §3h): a reset cluster on a reset
// engine is observationally identical to cluster.New with the same spec.
// Call only between runs, after the engine itself has been reset.
func (c *Cluster) Reset() {
	c.BytesOnWire = 0
	c.Transfers = 0
	c.LinkStalls = 0
	c.LinkStallTime = 0
	for _, n := range c.nodes {
		n.nicDegrade = 0
		n.linkDownUntil = 0
		n.stallTime = 0
		n.train = nil
		n.nic.Reset()
		s := n.SSD
		s.degrade = 0
		s.failed = false
		s.BytesRead = 0
		s.BytesWritten = 0
		s.FailedOps = 0
		s.readLat = nil
		s.writeLat = nil
		s.dev.Reset()
	}
}

// Node returns node i.
func (c *Cluster) Node(i int) *Node {
	if i < 0 || i >= len(c.nodes) {
		panic(fmt.Sprintf("cluster: node %d out of range [0,%d)", i, len(c.nodes)))
	}
	return c.nodes[i]
}

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Transfer moves n bytes from src to dst over the fabric, charging both
// endpoints' NICs (FIFO) and the hop latency. Same-node transfers cost a
// memcpy-like fraction of NIC time with no hop latency. It returns the
// total elapsed time.
//
// The sender serializes the message onto the wire in segments (the fabric
// is packet-switched: a small control message never waits for a whole
// multi-megabyte transfer ahead of it, only for the segment in flight),
// the message crosses the fabric, and the receiver's NIC completion posts
// in FIFO order. Acquiring the two NICs sequentially (never holding both)
// keeps the model deadlock-free while still producing incast and fan-out
// contention at shared endpoints. A link outage at either endpoint stalls
// the transfer until the link returns: the fabric retransmits below the
// application, which sees only the lost time. The whole wire phase runs
// as one chain of continuations (see wire), so p's goroutine resumes
// once, when the message is done.
func (c *Cluster) Transfer(p *sim.Proc, src, dst *Node, n int64) time.Duration {
	start := p.Now()
	w := newWire(c, src, dst, n, wireBegin)
	p.Inline(w.step)
	w.free()
	return p.Now() - start
}

// wireSegment is the interleaving granularity of the fabric model.
const wireSegment = 256 << 10

// RPC models a small request/response exchange between nodes: one message
// each way plus the remote service time, which is executed while holding
// the given service resource (if non-nil). Like Transfer, it is one chain.
func (c *Cluster) RPC(p *sim.Proc, src, dst *Node, reqBytes, respBytes int64, server *sim.Resource, service time.Duration) time.Duration {
	start := p.Now()
	w := c.newRPC(src, dst, reqBytes, respBytes, server, service)
	p.Inline(w.step)
	w.free()
	return p.Now() - start
}

// RPCThen is RPC as one step of p's Inline chain (or of a goroutine-free
// process): it sends the request now and, in the continuation that
// delivers the response, calls then(p), which names the chain's next step
// or ends it. The exchange's events, spans and critical-path edges are
// RPC's, and a chain of any number of them costs p's goroutine at most
// one handoff. It must be called from a continuation.
func (c *Cluster) RPCThen(p *sim.Proc, src, dst *Node, reqBytes, respBytes int64, server *sim.Resource, service time.Duration, then func(p *sim.Proc)) {
	w := c.newRPC(src, dst, reqBytes, respBytes, server, service)
	w.then = then
	w.step(p)
}

// newRPC returns a wire state for an RPC's request leg.
func (c *Cluster) newRPC(src, dst *Node, reqBytes, respBytes int64, server *sim.Resource, service time.Duration) *wire {
	w := newWire(c, src, dst, reqBytes, rpcBegin)
	w.respBytes, w.server, w.service = respBytes, server, service
	return w
}

// wire is one Transfer or RPC in flight: a flat state machine run as the
// calling process's Inline chain, or as one step of it (RPCThen). Each
// phase ends where the goroutine loop it replaced yielded — a link stall,
// each segment's FIFO hold on the sender NIC, the hop, the receive
// completion, an RPC's service — except that an uncontended run of
// segments is one hold, a segment train (see train), until a waiter
// splits it. So the completions, the wakes, the critical-path edges and
// the spans are that loop's one for one, with fewer events
// (TestWireChainMatchesGoroutineLoop keeps the loop as its reference).
type wire struct {
	c        *Cluster
	src, dst *Node // the current message's endpoints
	n        int64 // the current message's size
	rest     int64 // bytes of it not yet on the wire
	first    bool  // the next segment carries the NIC overhead
	phase    wirePhase
	after    wirePhase     // where the chain goes when the message is done
	hold     time.Duration // the current segment's wire time, or link stall
	start    sim.Time      // start of the span being timed

	// The segment train, while one holds the sender NIC (src.train == w).
	holder   *sim.Proc     // the process whose hold it is
	boundary sim.Time      // the end of its first segment
	segHold  time.Duration // the wire time of each full segment after that
	booked   int64         // bytes booked after the first segment
	mark     int64         // engine watermark when it was booked

	// RPC only.
	respBytes int64
	server    *sim.Resource
	service   time.Duration
	then      func(p *sim.Proc) // RPCThen's successor, run at the response

	step func(p *sim.Proc) // advance, bound once so no step allocates
}

type wirePhase uint8

const (
	rpcBegin       wirePhase = iota // open the rpc region, send the request
	wireBegin                       // a message starts: count it, loopback or wire
	wireSrcStalled                  // waited out the source's link outage
	wireDstLink                     // check the destination's link
	wireDstStalled                  // waited out the destination's link outage
	wireOnWire                      // links up: start serializing segments
	wireSeg                         // queue the next segment on the sender NIC
	wireSegHeld                     // sender NIC granted: hold it for the segment
	wireSegDone                     // segment on the wire: release, next or hop
	wireHop                         // crossed the fabric: queue the receive completion
	wireRecvHeld                    // receiver NIC granted: post the completion
	wireRecvDone                    // completion posted: the message is done
	wireLoopback                    // the memory-speed copy is done
	rpcService                      // request delivered: serve it
	rpcServerHeld                   // server granted: hold it for the service time
	rpcServed                       // service done: release the server, respond
	rpcEnd                          // response delivered: close the rpc region
	wireDone                        // a lone Transfer is done
)

// wires is the engine's free list of wire states: a Transfer takes one
// and returns it when its chain (an RPCThen, its step) is done, so a
// Transfer on a warmed engine allocates nothing, even on a fresh cluster
// per run. sync.Pool would not do (the GC empties it, which would make
// allocation budgets flaky), nor would a per-cluster list (harnesses
// build a cluster per run when the spec changes; the engine is kept). A
// chain unwound by a failed run is never returned: its state may still
// be referenced as a pending continuation.
var wires = sim.NewFreeList[wire]()

// newWire returns a wire state for one message, starting in phase.
func newWire(c *Cluster, src, dst *Node, n int64, phase wirePhase) *wire {
	w := wires.Get(c.e)
	if w == nil {
		w = new(wire)
		w.step = w.advance
	}
	w.c, w.src, w.dst, w.n, w.phase, w.after = c, src, dst, n, phase, wireDone
	return w
}

// free returns w to the free list, dropping its references.
func (w *wire) free() {
	e := w.c.e
	*w = wire{step: w.step}
	wires.Put(e, w)
}

// advance runs the chain from the current phase until it must wait (it
// names its successor, w.step) or is done (it names none). Phases that do
// not wait fall through in the loop, immediate grants included
// (TryAcquireThen), so the machine never recurses into itself.
func (w *wire) advance(p *sim.Proc) {
	c := w.c
	for {
		switch w.phase {
		case rpcBegin:
			p.CritBegin("net", "rpc", trace.ClassDetail)
			w.phase, w.after = wireBegin, rpcService
		case wireBegin:
			if w.n < 0 {
				panic("cluster: negative transfer size")
			}
			c.Transfers++
			// Detail class: the critical-path blame inherits whatever
			// workflow region the transfer runs inside (movement for data,
			// idle for sync).
			p.CritBegin("net", "transfer", trace.ClassDetail)
			if w.src == w.dst {
				// Loopback: no wire, just a cheap copy at memory speed.
				w.start = p.Now()
				w.phase = wireLoopback
				p.SleepThen(bwTime(w.n, 8*c.Spec.NIC.Bandwidth), w.step)
				return
			}
			c.BytesOnWire += w.n
			if w.stall(p, w.src, wireSrcStalled) {
				return
			}
			w.phase = wireDstLink
		case wireSrcStalled:
			w.emitStall(p, w.src)
			w.phase = wireDstLink
		case wireDstLink:
			if w.stall(p, w.dst, wireDstStalled) {
				return
			}
			w.phase = wireOnWire
		case wireDstStalled:
			w.emitStall(p, w.dst)
			w.phase = wireOnWire
		case wireOnWire:
			w.start = p.Now()
			w.rest, w.first = w.n, true
			w.phase = wireSeg
		case wireSeg:
			seg := min(w.rest, wireSegment)
			t := bwTime(seg, c.Spec.NIC.Bandwidth)
			if w.first {
				t += c.Spec.NIC.Overhead
				w.first = false
			}
			w.rest -= seg
			// Scaled when requested, before the grant, like the wire time
			// a blocked Use was handed.
			w.hold = w.src.nicScale(t)
			w.phase = wireSegHeld
			if !w.src.nic.TryAcquireThen(p, 1, w.step) {
				return
			}
		case wireSegHeld:
			w.phase = wireSegDone
			hold := w.hold
			if w.rest > 0 && w.src.nic.QueueLen() == 0 {
				hold = w.train(p)
			}
			p.SleepThen(hold, w.step)
			return
		case wireSegDone:
			w.src.train = nil // w's train, if any, has run out or split here
			w.src.nic.Release(1)
			if w.rest > 0 {
				w.phase = wireSeg
				continue
			}
			w.phase = wireHop
			p.SleepThen(c.Spec.Fabric.HopLatency, w.step)
			return
		case wireHop:
			// The receive completion posts in FIFO order behind local sends.
			w.phase = wireRecvHeld
			if !w.dst.nic.TryAcquireThen(p, 1, w.step) {
				return
			}
		case wireRecvHeld:
			w.phase = wireRecvDone
			if !p.YieldThen(w.step) {
				return
			}
		case wireRecvDone:
			w.dst.nic.Release(1)
			w.endMessage(p, "")
		case wireLoopback:
			w.endMessage(p, "loopback")
		case rpcService:
			w.start = p.Now()
			if w.server == nil {
				w.phase = rpcServed
				p.SleepThen(w.service, w.step)
				return
			}
			w.phase = rpcServerHeld
			if !w.server.TryAcquireThen(p, 1, w.step) {
				return
			}
		case rpcServerHeld:
			w.phase = rpcServed
			p.SleepThen(w.service, w.step)
			return
		case rpcServed:
			if w.server != nil {
				w.server.Release(1)
			}
			if p.Rec() != nil {
				w.emitService(p)
			}
			w.src, w.dst, w.n = w.dst, w.src, w.respBytes
			w.phase, w.after = wireBegin, rpcEnd
		case rpcEnd:
			p.CritEnd()
			if then := w.then; then != nil {
				// The wire goes back first: then may start the next one.
				w.free()
				then(p)
			}
			return
		case wireDone:
			return
		}
	}
}

// train books the rest of the message behind the granted segment as one
// hold of the sender NIC, a segment train, and returns its length: the
// sum of the segment holds the per-segment model would take in turn, each
// truncated on its own. Every segment after the granted one is a full
// wireSegment but the last, so the sum is O(1), as is finding a boundary
// in split. The NIC stays held throughout, so a process that wants it
// queues, and the NIC's watcher splits the train first (nicWatch); so does a
// change of the NIC's degradation. Zero-time segments (an absurd
// bandwidth) leave no boundary to split at, so they are never booked.
func (w *wire) train(p *sim.Proc) time.Duration {
	n, bw := w.src, w.c.Spec.NIC.Bandwidth
	seg := n.nicScale(bwTime(wireSegment, bw))
	if seg <= 0 {
		return w.hold
	}
	full := (w.rest - 1) / wireSegment // full segments before the last
	last := n.nicScale(bwTime(w.rest-full*wireSegment, bw))
	w.holder, w.boundary, w.segHold, w.booked = p, p.Now()+w.hold, seg, w.rest
	w.mark = w.c.e.Watermark()
	w.rest = 0
	n.train = w
	return w.hold + time.Duration(full)*seg + last
}

// split ends w's train at its first segment boundary strictly after now:
// the holder's delivery moves there (sim.Proc.Retime) and the bytes after
// it go back to per-segment requests, so whoever queued meanwhile is
// granted there, as in the per-segment model. A boundary at now itself
// counts when the code running (the waiter's acquire, or a change of
// degradation) would have come before the per-segment delivery there:
// when it was scheduled before that delivery was. The first boundary's
// delivery would have been scheduled when the train was booked (its
// watermark), each later one's at the boundary before it
// (sim.Engine.ScheduledAfter). With no boundary left the train runs to
// its end.
func (w *wire) split() {
	w.src.train = nil
	e := w.c.e
	now := e.Now()
	at, k := w.boundary, time.Duration(0)
	if now > at {
		k = (now - at + w.segHold - 1) / w.segHold // first boundary at or after now
	}
	if at+k*w.segHold == now && (k == 0 && !e.FiringBefore(w.mark) || k > 0 && e.ScheduledAfter(at+(k-1)*w.segHold)) {
		k++
	}
	if rest := w.booked - int64(k)*wireSegment; rest > 0 {
		w.rest = rest
		w.holder.Retime(at + k*w.segHold)
	}
}

// stall starts waiting out a link outage at n, charging the wait to the
// cluster's recovery accounting, and reports whether there is one: then
// the chain goes on in phase `then` when the link is back. A healthy link
// costs one comparison. The wait lives in w, not in n: two processes can
// stall on one node at once.
func (w *wire) stall(p *sim.Proc, n *Node, then wirePhase) bool {
	wait := n.linkDownUntil - p.Now()
	if wait <= 0 {
		return false
	}
	n.cl.LinkStalls++
	n.cl.LinkStallTime += wait
	n.stallTime += wait
	w.hold = wait
	w.phase = then
	p.SleepThen(wait, w.step)
	return true
}

// endMessage closes the current message: its span when tracing is on (the
// wire time only; link-outage stalls have their own recovery spans) and
// its transfer region, then moves on to what follows it.
func (w *wire) endMessage(p *sim.Proc, attr string) {
	if p.Rec() != nil {
		w.emitTransfer(p, attr)
	}
	p.CritEnd()
	w.phase = w.after
}

//go:noinline
func (w *wire) emitTransfer(p *sim.Proc, attr string) {
	p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "net", Name: "transfer",
		Start: w.start, Dur: p.Now() - w.start, Bytes: w.n, Attr: attr})
}

//go:noinline
func (w *wire) emitStall(p *sim.Proc, n *Node) {
	if rec := p.Rec(); rec != nil {
		rec.Emit(trace.Span{Proc: p.Name(), Component: "net", Name: "link_stall",
			Class: trace.ClassRecovery, Start: p.Now() - w.hold, Dur: w.hold, Attr: n.Name()})
	}
}

//go:noinline
func (w *wire) emitService(p *sim.Proc) {
	attr := ""
	if w.server != nil {
		attr = w.server.Name()
	}
	p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "net", Name: "rpc_service",
		Start: w.start, Dur: p.Now() - w.start, Attr: attr})
}

// bwTime converts size at a bandwidth into a duration.
func bwTime(n int64, bytesPerSec float64) time.Duration {
	if bytesPerSec <= 0 {
		panic("cluster: nonpositive bandwidth")
	}
	return time.Duration(float64(n) / bytesPerSec * float64(time.Second))
}
