package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/critpath"
	"repro/internal/sim"
	"repro/internal/trace"
)

// refTransfer is the goroutine wire loop that the chained Transfer
// replaced, kept as the reference the chain must match event for event:
// one yield per link stall, per segment's NIC hold, for the hop and for
// the receive completion.
func refTransfer(c *Cluster, p *sim.Proc, src, dst *Node, n int64) time.Duration {
	start := p.Now()
	c.Transfers++
	p.CritBegin("net", "transfer", trace.ClassDetail)
	defer p.CritEnd()
	if src == dst {
		p.Sleep(bwTime(n, 8*c.Spec.NIC.Bandwidth))
		p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "net", Name: "transfer",
			Start: start, Dur: p.Now() - start, Bytes: n, Attr: "loopback"})
		return p.Now() - start
	}
	c.BytesOnWire += n
	refAwaitLink(src, p)
	refAwaitLink(dst, p)
	wireStart := p.Now()
	rest := n
	first := true
	for rest > 0 || first {
		seg := rest
		if seg > wireSegment {
			seg = wireSegment
		}
		wire := bwTime(seg, c.Spec.NIC.Bandwidth)
		if first {
			wire += c.Spec.NIC.Overhead
			first = false
		}
		src.nic.Use(p, src.nicScale(wire))
		rest -= seg
	}
	p.Sleep(c.Spec.Fabric.HopLatency)
	dst.nic.Use(p, 0)
	p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "net", Name: "transfer",
		Start: wireStart, Dur: p.Now() - wireStart, Bytes: n})
	return p.Now() - start
}

// refAwaitLink is the per-node link-outage wait of the reference loop.
func refAwaitLink(n *Node, p *sim.Proc) {
	if n.linkDownUntil == 0 {
		return
	}
	if wait := n.linkDownUntil - p.Now(); wait > 0 {
		n.cl.LinkStalls++
		n.cl.LinkStallTime += wait
		n.stallTime += wait
		p.Sleep(wait)
		p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "net", Name: "link_stall",
			Class: trace.ClassRecovery, Start: p.Now() - wait, Dur: wait, Attr: n.Name()})
	}
}

// refRPC is the goroutine RPC the chained one replaced.
func refRPC(c *Cluster, p *sim.Proc, src, dst *Node, reqBytes, respBytes int64, server *sim.Resource, service time.Duration) time.Duration {
	start := p.Now()
	p.CritBegin("net", "rpc", trace.ClassDetail)
	defer p.CritEnd()
	refTransfer(c, p, src, dst, reqBytes)
	svcStart := p.Now()
	if server != nil {
		server.Use(p, service)
	} else {
		p.Sleep(service)
	}
	attr := ""
	if server != nil {
		attr = server.Name()
	}
	p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "net", Name: "rpc_service",
		Start: svcStart, Dur: p.Now() - svcStart, Attr: attr})
	refTransfer(c, p, dst, src, respBytes)
	return p.Now() - start
}

// wireImpl is one implementation of the two wire operations.
type wireImpl struct {
	transfer func(c *Cluster, p *sim.Proc, src, dst *Node, n int64) time.Duration
	rpc      func(c *Cluster, p *sim.Proc, src, dst *Node, req, resp int64, srv *sim.Resource, svc time.Duration) time.Duration
}

var (
	chainWire = wireImpl{(*Cluster).Transfer, (*Cluster).RPC}
	thenWire  = wireImpl{(*Cluster).Transfer, thenRPC}
	refWire   = wireImpl{refTransfer, refRPC}
)

// thenRPC is an RPC run as an Inline chain of one RPCThen step, whose
// successor ends the chain.
func thenRPC(c *Cluster, p *sim.Proc, src, dst *Node, reqBytes, respBytes int64, server *sim.Resource, service time.Duration) time.Duration {
	start := p.Now()
	var took time.Duration
	p.Inline(func(p *sim.Proc) {
		c.RPCThen(p, src, dst, reqBytes, respBytes, server, service, func(p *sim.Proc) {
			took = p.Now() - start
		})
	})
	return took
}

// wireOp is one process's completed operation: when it ended and what the
// operation reported as its elapsed time.
type wireOp struct {
	Proc string
	At   sim.Time
	Took time.Duration
}

// wireRun is everything a wire implementation can change about a run.
type wireRun struct {
	events        int64
	handoffs      int64
	ops           []wireOp
	spans         []trace.Span
	graph         *critpath.Graph
	nicBusy       []int64
	linkStalls    int64
	linkStallTime time.Duration
	nodeStall     []time.Duration
}

// wireScenario builds a workload on a fresh 4-node cluster through w.
// events pins the chain's event count: fewer than the goroutine loop's
// wherever a segment train books an uncontended run of segments as one
// hold.
type wireScenario struct {
	name   string
	events int64
	build  func(e *sim.Engine, c *Cluster, w wireImpl, done func(p *sim.Proc, took time.Duration))
}

// Segment boundaries of a message whose first segment is granted at t=0
// on testSpec's NIC (1 GB/s, 1µs overhead): the first segment ends at
// segB(1), each full segment after it 262,144 ns later.
func segB(k int) time.Duration {
	return 263144*time.Nanosecond + time.Duration(k-1)*262144*time.Nanosecond
}

// sender spawns a process on the cluster's engine that runs op inside a
// movement region and reports its completion.
func sender(e *sim.Engine, name string, delay time.Duration, done func(*sim.Proc, time.Duration), op func(p *sim.Proc) time.Duration) {
	e.Spawn(name, func(p *sim.Proc) {
		p.CritBegin("workflow", name, trace.ClassMovement)
		p.Sleep(delay)
		done(p, op(p))
		p.CritEnd()
	})
}

var wireScenarios = []wireScenario{
	{"fan-in", 92, func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
		// Six senders converge on node 0 while node 0 sends out, so
		// receive completions queue behind local sends.
		for i := 0; i < 6; i++ {
			src := c.Node(1 + i%3)
			sender(e, fmt.Sprintf("in%d", i), time.Duration(i)*50*time.Microsecond, done, func(p *sim.Proc) time.Duration {
				return w.transfer(c, p, src, c.Node(0), 1<<20+int64(i)*4096)
			})
		}
		sender(e, "out", 0, done, func(p *sim.Proc) time.Duration {
			return w.transfer(c, p, c.Node(0), c.Node(1), 3<<20)
		})
	}},
	{"sizes", 71, func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
		for i, n := range []int64{0, 1, wireSegment, wireSegment + 1, 4 << 20} {
			n := n
			sender(e, fmt.Sprintf("seq%d", i), 0, done, func(p *sim.Proc) time.Duration {
				return w.transfer(c, p, c.Node(1), c.Node(2), n)
			})
			sender(e, fmt.Sprintf("par%d", i), 0, done, func(p *sim.Proc) time.Duration {
				return w.transfer(c, p, c.Node(3), c.Node(2), n)
			})
		}
	}},
	{"loopback", 32, func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
		for i, n := range []int64{0, 1, 4 << 20} {
			n := n
			sender(e, fmt.Sprintf("lo%d", i), 0, done, func(p *sim.Proc) time.Duration {
				return w.transfer(c, p, c.Node(0), c.Node(0), n)
			})
		}
		for i := 1; i <= 2; i++ {
			dst := c.Node(i)
			sender(e, fmt.Sprintf("wire%d", i), 0, done, func(p *sim.Proc) time.Duration {
				return w.transfer(c, p, c.Node(0), dst, 1<<20)
			})
		}
	}},
	{"rpc", 84, func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
		srv := sim.NewResource(e, "srv", 1)
		for i := 0; i < 4; i++ {
			src := c.Node(i % 3)
			sender(e, fmt.Sprintf("rpc%d", i), time.Duration(i)*time.Microsecond, done, func(p *sim.Proc) time.Duration {
				return w.rpc(c, p, src, c.Node(3), 256, 128<<10, srv, 40*time.Microsecond)
			})
		}
		sender(e, "bare", 0, done, func(p *sim.Proc) time.Duration {
			return w.rpc(c, p, c.Node(1), c.Node(3), 64, 64, nil, 30*time.Microsecond)
		})
		sender(e, "bare0", 0, done, func(p *sim.Proc) time.Duration {
			return w.rpc(c, p, c.Node(2), c.Node(3), 0, 0, nil, 0)
		})
		sender(e, "local", 0, done, func(p *sim.Proc) time.Duration {
			return w.rpc(c, p, c.Node(3), c.Node(3), 64, 64, srv, 10*time.Microsecond)
		})
		sender(e, "bulk", 0, done, func(p *sim.Proc) time.Duration {
			return w.transfer(c, p, c.Node(3), c.Node(0), 2<<20)
		})
	}},
	{"link outages", 57, func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
		c.Node(1).FailLinkUntil(3 * time.Millisecond)
		c.Node(2).FailLinkUntil(2 * time.Millisecond)
		// Two processes stall on node 1 as the source at once, one on it
		// as the destination, and one on both ends in turn.
		for i := 0; i < 2; i++ {
			sender(e, fmt.Sprintf("src%d", i), time.Duration(i)*100*time.Microsecond, done, func(p *sim.Proc) time.Duration {
				return w.transfer(c, p, c.Node(1), c.Node(0), 600<<10)
			})
		}
		sender(e, "dst", 500*time.Microsecond, done, func(p *sim.Proc) time.Duration {
			return w.transfer(c, p, c.Node(0), c.Node(1), 300<<10)
		})
		sender(e, "both", 0, done, func(p *sim.Proc) time.Duration {
			return w.transfer(c, p, c.Node(2), c.Node(1), 1<<20)
		})
		sender(e, "rpc", 0, done, func(p *sim.Proc) time.Duration {
			return w.rpc(c, p, c.Node(0), c.Node(2), 128, 64, nil, 5*time.Microsecond)
		})
		// A later outage catches a process between its two RPC legs.
		e.After(4*time.Millisecond, func() { c.Node(3).FailLinkUntil(5 * time.Millisecond) })
		sender(e, "late", 3900*time.Microsecond, done, func(p *sim.Proc) time.Duration {
			return w.rpc(c, p, c.Node(0), c.Node(3), 128, 64, nil, 200*time.Microsecond)
		})
	}},
	{"degrade mid-transfer", 115, func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
		// The degradation lands while one sender holds node 1's NIC and
		// another is queued behind it: a segment's wire time is scaled
		// when it is requested, before the grant.
		e.After(700*time.Microsecond, func() { c.Node(1).DegradeNIC(3) })
		e.After(2*time.Millisecond, func() { c.Node(2).DegradeNIC(1.5) })
		for i := 0; i < 3; i++ {
			sender(e, fmt.Sprintf("tx%d", i), time.Duration(i)*10*time.Microsecond, done, func(p *sim.Proc) time.Duration {
				return w.transfer(c, p, c.Node(1), c.Node(2), 4<<20)
			})
		}
		sender(e, "back", 0, done, func(p *sim.Proc) time.Duration {
			return w.transfer(c, p, c.Node(2), c.Node(1), 2<<20)
		})
	}},
	{"waiters mid-train", 21, func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
		// A local send and a receive completion each queue on node 1's
		// NIC inside a segment of a train, and the train rebooks after
		// each.
		sender(e, "tx", 0, done, func(p *sim.Proc) time.Duration {
			return w.transfer(c, p, c.Node(1), c.Node(2), 3<<20)
		})
		sender(e, "local", 400*time.Microsecond, done, func(p *sim.Proc) time.Duration {
			return w.transfer(c, p, c.Node(1), c.Node(3), 100<<10)
		})
		sender(e, "inbound", 1500*time.Microsecond, done, func(p *sim.Proc) time.Duration {
			return w.transfer(c, p, c.Node(0), c.Node(1), 64<<10)
		})
	}},
	{"waiter on a boundary, scheduled before the train", 13, func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
		// pre's sleep is scheduled before tx books its train and ends
		// exactly on the train's second boundary: it fires ahead of the
		// per-segment delivery there, so pre is granted at that boundary,
		// not the next.
		sender(e, "pre", segB(2), done, func(p *sim.Proc) time.Duration {
			return w.transfer(c, p, c.Node(1), c.Node(3), 100<<10)
		})
		sender(e, "tx", 0, done, func(p *sim.Proc) time.Duration {
			return w.transfer(c, p, c.Node(1), c.Node(2), 2<<20)
		})
	}},
	{"waiter on a boundary, woken there", 15, func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
		// woken's wake is issued at the train's third boundary, after the
		// per-segment delivery there was scheduled: it queues behind the
		// fourth segment.
		var go_ sim.Latch
		sender(e, "tx", 0, done, func(p *sim.Proc) time.Duration {
			return w.transfer(c, p, c.Node(1), c.Node(2), 2<<20)
		})
		sender(e, "woken", 0, done, func(p *sim.Proc) time.Duration {
			go_.Wait(p)
			return w.transfer(c, p, c.Node(1), c.Node(3), 100<<10)
		})
		e.After(segB(3), go_.Fire)
	}},
	{"degrade off and on boundaries", 34, func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
		// The first degradation lands inside tx's second segment; the
		// train rebooks at that segment's end under factor 2, and the
		// second lands exactly on the new train's second boundary,
		// scheduled before it was booked.
		e.After(400*time.Microsecond, func() { c.Node(1).DegradeNIC(2) })
		rebooked := segB(2)
		e.After(rebooked+2*524288*time.Nanosecond, func() { c.Node(1).DegradeNIC(3) })
		// Unchanged factors split nothing.
		e.After(300*time.Microsecond, func() { c.Node(1).DegradeNIC(1) })
		e.After(3*time.Millisecond, func() { c.Node(1).DegradeNIC(3) })
		sender(e, "tx", 0, done, func(p *sim.Proc) time.Duration {
			return w.transfer(c, p, c.Node(1), c.Node(2), 3<<20)
		})
		pairOnNode3(e, c, w, done)
	}},
	{"two splits in one message", 21, func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
		sender(e, "tx", 0, done, func(p *sim.Proc) time.Duration {
			return w.transfer(c, p, c.Node(1), c.Node(2), 4<<20)
		})
		for i, at := range []time.Duration{300 * time.Microsecond, 2 * time.Millisecond} {
			sender(e, fmt.Sprintf("cut%d", i), at, done, func(p *sim.Proc) time.Duration {
				return w.transfer(c, p, c.Node(1), c.Node(0), 100<<10)
			})
		}
	}},
	{"stale delivery outlives its message", 33, func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
		// tx books its first train under factor 4; the repair at 1ms
		// splits it, the rest goes at full speed, and tx's second message
		// books its own train while the first train's moved-away
		// delivery is still queued, due after the run's last event.
		c.Node(1).DegradeNIC(4)
		e.After(time.Millisecond, func() { c.Node(1).DegradeNIC(1) })
		sender(e, "tx", 0, done, func(p *sim.Proc) time.Duration {
			start := p.Now()
			w.transfer(c, p, c.Node(1), c.Node(2), 2<<20)
			w.transfer(c, p, c.Node(1), c.Node(3), 1<<20)
			return p.Now() - start
		})
		pairOnNode3(e, c, w, done)
	}},
}

// pairOnNode3 adds two senders that start together on node 3: the second
// queues behind the first one's train at its grant, which splits it at
// its first boundary.
func pairOnNode3(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
	for i := 0; i < 2; i++ {
		sender(e, fmt.Sprintf("n3-%d", i), 0, done, func(p *sim.Proc) time.Duration {
			return w.transfer(c, p, c.Node(3), c.Node(0), 1<<20)
		})
	}
}

// runWire runs sc through w with spans and the critical path recorded.
func runWire(sc wireScenario, w wireImpl) (wireRun, error) {
	e := sim.NewEngine(3)
	rec := trace.NewRecorder()
	e.SetRecorder(rec)
	cp := critpath.NewRecorder()
	e.SetCritRecorder(cp)
	c := New(e, testSpec(4))
	var out wireRun
	sc.build(e, c, w, func(p *sim.Proc, took time.Duration) {
		out.ops = append(out.ops, wireOp{Proc: p.Name(), At: p.Now(), Took: took})
	})
	if err := e.Run(); err != nil {
		return out, err
	}
	out.events = e.Events()
	out.handoffs = e.Handoffs()
	out.spans = rec.Spans()
	out.graph = cp.Finish(e.Now())
	for i := 0; i < c.Nodes(); i++ {
		n := c.Node(i)
		out.nicBusy = append(out.nicBusy, n.nic.BusyUnitNanos())
		out.nodeStall = append(out.nodeStall, n.stallTime)
	}
	out.linkStalls, out.linkStallTime = c.LinkStalls, c.LinkStallTime
	return out, nil
}

// The chained Transfer and RPC are the goroutine loop's timeline one for
// one: the same completions, spans, critical-path graph, NIC occupancy
// and link-stall accounting, with fewer goroutine handoffs, and with
// fewer events wherever a segment train holds a NIC (each scenario pins
// the chain's count). So is an RPC made as one RPCThen step of an Inline
// chain.
func TestWireChainMatchesGoroutineLoop(t *testing.T) {
	for _, sc := range wireScenarios {
		t.Run(sc.name, func(t *testing.T) {
			checkWireMatches(t, sc, chainWire)
			t.Run("RPCThen", func(t *testing.T) { checkWireMatches(t, sc, thenWire) })
		})
	}
}

// checkWireMatches runs sc through the goroutine loop and through w and
// compares the two runs.
func checkWireMatches(t *testing.T, sc wireScenario, w wireImpl) {
	t.Helper()
	ref, err := runWire(sc, refWire)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runWire(sc, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.graph.Edges) == 0 {
		t.Fatal("weak scenario: no release edges")
	}
	if got.events != sc.events {
		t.Errorf("events: %d, pinned at %d (goroutine loop %d)", got.events, sc.events, ref.events)
	}
	compareWireRuns(t, got, ref)
}

// compareWireRuns compares everything but the event count of a chained
// run with the goroutine loop's.
func compareWireRuns(t *testing.T, got, ref wireRun) {
	t.Helper()
	if !reflect.DeepEqual(got.ops, ref.ops) {
		t.Errorf("completions differ:\n got %v\nwant %v", got.ops, ref.ops)
	}
	if !reflect.DeepEqual(got.spans, ref.spans) {
		t.Errorf("spans differ:\n got %v\nwant %v", got.spans, ref.spans)
	}
	if !reflect.DeepEqual(got.graph, ref.graph) {
		t.Errorf("critical-path graph differs:\n got %+v\nwant %+v", got.graph, ref.graph)
	}
	if got.graph.Unclosed != 0 {
		t.Errorf("%d processes ended with a region open", got.graph.Unclosed)
	}
	if !reflect.DeepEqual(got.nicBusy, ref.nicBusy) {
		t.Errorf("NIC busy integrals: %v, goroutine loop %v", got.nicBusy, ref.nicBusy)
	}
	if got.linkStalls != ref.linkStalls || got.linkStallTime != ref.linkStallTime ||
		!reflect.DeepEqual(got.nodeStall, ref.nodeStall) {
		t.Errorf("link stalls: %d / %v / %v, goroutine loop %d / %v / %v",
			got.linkStalls, got.linkStallTime, got.nodeStall, ref.linkStalls, ref.linkStallTime, ref.nodeStall)
	}
	if got.handoffs >= ref.handoffs {
		t.Errorf("handoffs: %d, goroutine loop %d; want fewer", got.handoffs, ref.handoffs)
	}
}

// Random workloads split trains at arbitrary instants: senders on four
// nodes with random sizes and start times to the nanosecond, receive
// completions landing on held NICs, and NIC degradations and repairs at
// random times. The chain must match the goroutine loop with no more
// events.
func TestWireChainMatchesGoroutineLoopRandom(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		sc := wireScenario{fmt.Sprintf("seed %d", seed), 0, func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
			rng := sim.NewRNG(seed)
			at := func(max time.Duration) time.Duration { return time.Duration(rng.Uint64() % uint64(max)) }
			for i := 0; i < 8; i++ {
				src, dst := c.Node(int(rng.Uint64()%4)), c.Node(int(rng.Uint64()%4))
				n := int64(rng.Uint64() % (3 << 20))
				sender(e, fmt.Sprintf("tx%d", i), at(3*time.Millisecond), done, func(p *sim.Proc) time.Duration {
					return w.transfer(c, p, src, dst, n)
				})
			}
			for i := 0; i < 3; i++ {
				n, f := c.Node(int(rng.Uint64()%4)), 1+float64(rng.Uint64()%4)
				e.After(at(4*time.Millisecond), func() { n.DegradeNIC(f) })
			}
		}}
		ref, err := runWire(sc, refWire)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runWire(sc, chainWire)
		if err != nil {
			t.Fatal(err)
		}
		if got.events > ref.events {
			t.Errorf("%s: %d events, goroutine loop %d", sc.name, got.events, ref.events)
		}
		compareWireRuns(t, got, ref)
	}
}

// A chain of RPCThen steps is the same RPCs made one after another: each
// step's wire goes back to the free list before its successor runs, which
// takes it again at once.
func TestRPCThenChainMatchesConsecutiveRPCs(t *testing.T) {
	sequence := func(chain bool) wireScenario {
		return wireScenario{"rpc sequence", 0, func(e *sim.Engine, c *Cluster, _ wireImpl, done func(*sim.Proc, time.Duration)) {
			srv := sim.NewResource(e, "srv", 1)
			sizes := []int64{64, 300 << 10, 0, 1 << 20}
			for i := 0; i < 3; i++ {
				src := c.Node(i)
				sender(e, fmt.Sprintf("s%d", i), time.Duration(i)*time.Microsecond, done, func(p *sim.Proc) time.Duration {
					start := p.Now()
					if !chain {
						for _, n := range sizes {
							c.RPC(p, src, c.Node(3), 128, n, srv, 20*time.Microsecond)
						}
						return p.Now() - start
					}
					k := 0
					var step func(p *sim.Proc)
					step = func(p *sim.Proc) {
						if k < len(sizes) {
							k++
							c.RPCThen(p, src, c.Node(3), 128, sizes[k-1], srv, 20*time.Microsecond, step)
						}
					}
					p.Inline(step)
					return p.Now() - start
				})
			}
		}}
	}
	ref, err := runWire(sequence(false), chainWire)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runWire(sequence(true), chainWire)
	if err != nil {
		t.Fatal(err)
	}
	if got.events != ref.events || !reflect.DeepEqual(got.ops, ref.ops) || !reflect.DeepEqual(got.spans, ref.spans) {
		t.Errorf("chain: %d events, completions %v; consecutive RPCs: %d events, completions %v",
			got.events, got.ops, ref.events, ref.ops)
	}
	if !reflect.DeepEqual(got.graph, ref.graph) {
		t.Errorf("critical-path graph differs:\n got %+v\nwant %+v", got.graph, ref.graph)
	}
	if got.handoffs >= ref.handoffs {
		t.Errorf("handoffs: %d, consecutive RPCs %d; want fewer", got.handoffs, ref.handoffs)
	}
}

// Chain states come from the free list of the engine that runs the chain,
// so engines running at once on their own goroutines, as under a parallel
// experiment runner, share none and each get the serial run's timeline
// (run with -race to check that no state crosses engines).
func TestWireFreeListPerConcurrentEngine(t *testing.T) {
	for _, sc := range wireScenarios {
		want, err := runWire(sc, chainWire)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		got := make([]wireRun, 4)
		errs := make([]error, len(got))
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = runWire(sc, chainWire)
			}(i)
		}
		wg.Wait()
		for i, g := range got {
			if errs[i] != nil {
				t.Errorf("%s: concurrent engine %d: %v", sc.name, i, errs[i])
			} else if g.events != want.events || !reflect.DeepEqual(g.ops, want.ops) || !reflect.DeepEqual(g.spans, want.spans) {
				t.Errorf("%s: concurrent engine %d diverged from the serial run", sc.name, i)
			}
		}
	}
}

// A message's receive completion is a zero-length hold of the destination
// NIC: every event already due at its instant runs first. Booked without
// the queue when nothing else is due (Proc.YieldThen), it must still
// queue behind another event due then, whether that event waits in the
// ladder or in the same-instant lane. On testSpec a 1,000-byte message
// from t=0 holds its NIC 2µs and hops 1µs, so its completion is due at
// 3µs, from a hop delivery scheduled at 2µs; an observer delivered at 3µs
// from a later schedule must see the transfer not yet done.
func TestRecvCompletionQueuesBehindDueEvents(t *testing.T) {
	const due = 3 * time.Microsecond
	for _, tc := range []struct {
		name    string
		observe func(p *sim.Proc) // runs the observer up to its look at 3µs
		events  int64
	}{
		// Alone, the completion is booked as fired: four events, the
		// spawn, the segment hold, the hop and the completion.
		{"alone", nil, 4},
		// Woken at 2.5µs, after the hop was scheduled, the observer
		// sleeps into the ladder for 3µs.
		{"ladder", func(p *sim.Proc) { p.Sleep(due - 500*time.Nanosecond); p.Sleep(500 * time.Nanosecond) }, 7},
		// Woken at 3µs ahead of the hop, the observer yields into the
		// lane, behind the hop delivery.
		{"lane", func(p *sim.Proc) { p.Sleep(due); p.Sleep(0) }, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			c := New(e, testSpec(2))
			var doneAt time.Duration
			done := false
			e.Spawn("sender", func(p *sim.Proc) {
				c.Transfer(p, c.Node(0), c.Node(1), 1000)
				doneAt, done = p.Now(), true
			})
			if tc.observe != nil {
				e.Spawn("observer", func(p *sim.Proc) {
					tc.observe(p)
					if p.Now() != due {
						t.Errorf("observer looks at %v, want %v", p.Now(), due)
					}
					if done {
						t.Error("the receive completion ran before an event due at its instant")
					}
				})
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if !done || doneAt != due {
				t.Errorf("transfer done %v at %v, want at %v", done, doneAt, due)
			}
			if got := e.Events(); got != tc.events {
				t.Errorf("run fires %d events, want %d", got, tc.events)
			}
		})
	}
}
