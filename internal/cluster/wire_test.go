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
type wireScenario struct {
	name  string
	build func(e *sim.Engine, c *Cluster, w wireImpl, done func(p *sim.Proc, took time.Duration))
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
	{"fan-in", func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
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
	{"sizes", func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
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
	{"loopback", func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
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
	{"rpc", func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
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
	{"link outages", func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
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
	{"degrade mid-transfer", func(e *sim.Engine, c *Cluster, w wireImpl, done func(*sim.Proc, time.Duration)) {
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
// one: the same events, completions, spans, critical-path graph, NIC
// occupancy and link-stall accounting, with fewer goroutine handoffs. So
// is an RPC made as one RPCThen step of an Inline chain.
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
	if got.events != ref.events {
		t.Errorf("events: %d, goroutine loop %d", got.events, ref.events)
	}
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

// A chain of RPCThen steps is the same RPCs made one after another: each
// step's wire goes back to the free list before its successor runs, which
// takes it again at once.
func TestRPCThenChainMatchesConsecutiveRPCs(t *testing.T) {
	sequence := func(chain bool) wireScenario {
		return wireScenario{"rpc sequence", func(e *sim.Engine, c *Cluster, _ wireImpl, done func(*sim.Proc, time.Duration)) {
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

// Chain states come from one free list shared by every engine in the
// process, as under a parallel experiment runner: engines running at once
// on their own goroutines must each get the serial run's timeline (run
// with -race to check the list's locking).
func TestWireFreeListSharedByConcurrentEngines(t *testing.T) {
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
