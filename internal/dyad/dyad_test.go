package dyad

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/caliper"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// rig builds a DYAD deployment on an n-node cluster with KVS on node 0.
func rig(e *sim.Engine, n int) (*cluster.Cluster, *System) {
	cl := cluster.New(e, cluster.CoronaProfile(n))
	return cl, New(cl, cl.Node(0), DefaultParams())
}

func TestProduceConsumeSameNode(t *testing.T) {
	e := sim.NewEngine(1)
	cl, sys := rig(e, 1)
	payload := []byte("frame-0-bytes")
	var got vfs.Payload
	e.Spawn("prod", func(p *sim.Proc) {
		sys.NewClient(cl.Node(0)).Produce(p, "/flow/f0", vfs.BytesPayload(payload))
	})
	e.Spawn("cons", func(p *sim.Proc) {
		got, _ = sys.NewClient(cl.Node(0)).Consume(p, "/flow/f0")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("consumed %q, want %q", got.Bytes(), payload)
	}
	if sys.Fetched != 0 {
		t.Fatalf("same-node consume used %d remote fetches", sys.Fetched)
	}
}

func TestProduceConsumeCrossNode(t *testing.T) {
	e := sim.NewEngine(1)
	cl, sys := rig(e, 2)
	payload := bytes.Repeat([]byte("x"), 1<<20)
	var got vfs.Payload
	e.Spawn("prod", func(p *sim.Proc) {
		sys.NewClient(cl.Node(0)).Produce(p, "/flow/f0", vfs.BytesPayload(payload))
	})
	e.Spawn("cons", func(p *sim.Proc) {
		got, _ = sys.NewClient(cl.Node(1)).Consume(p, "/flow/f0")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("cross-node payload mismatch")
	}
	if sys.Fetched != 1 {
		t.Fatalf("remote fetches %d, want 1", sys.Fetched)
	}
	// The consumer's node now has a cached copy in its RAM cache.
	if _, ok := sys.Broker(cl.Node(1)).Cache().Get("/flow/f0"); !ok {
		t.Fatal("consumer-side cache copy missing")
	}
}

func TestConsumerBlocksUntilProduced(t *testing.T) {
	e := sim.NewEngine(1)
	cl, sys := rig(e, 2)
	var consumedAt sim.Time
	e.Spawn("cons", func(p *sim.Proc) {
		sys.NewClient(cl.Node(1)).Consume(p, "/flow/f0")
		consumedAt = p.Now()
	})
	e.Spawn("prod", func(p *sim.Proc) {
		p.Sleep(100 * time.Millisecond)
		sys.NewClient(cl.Node(0)).Produce(p, "/flow/f0", vfs.BytesPayload([]byte("late")))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if consumedAt < 100*time.Millisecond {
		t.Fatalf("consumed at %v, before production", consumedAt)
	}
}

func TestProducerNeverBlocksOnConsumer(t *testing.T) {
	// Loose coupling: production time must be independent of whether any
	// consumer exists.
	timeProduction := func(withConsumer bool) time.Duration {
		e := sim.NewEngine(1)
		cl, sys := rig(e, 2)
		var prodTime time.Duration
		e.Spawn("prod", func(p *sim.Proc) {
			c := sys.NewClient(cl.Node(0))
			t0 := p.Now()
			for i := 0; i < 10; i++ {
				c.Produce(p, fmt.Sprintf("/flow/f%d", i), vfs.SizeOnly(1<<16))
			}
			prodTime = p.Now() - t0
		})
		if withConsumer {
			e.Spawn("cons", func(p *sim.Proc) {
				c := sys.NewClient(cl.Node(1))
				for i := 0; i < 10; i++ {
					c.Consume(p, fmt.Sprintf("/flow/f%d", i))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return prodTime
	}
	alone := timeProduction(false)
	paired := timeProduction(true)
	// Allow small interference through shared KVS/fabric queues, but no
	// synchronization-scale stalls.
	if paired > alone*2 {
		t.Fatalf("production with consumer %v vs alone %v: producer blocked", paired, alone)
	}
}

func TestAdaptiveSyncSwitchesProtocols(t *testing.T) {
	// First consume of a flow pays the KVS watch; subsequent consumes of
	// already-produced frames must be far cheaper in dyad_fetch.
	e := sim.NewEngine(1)
	cl, sys := rig(e, 2)
	n := 8
	e.Spawn("prod", func(p *sim.Proc) {
		c := sys.NewClient(cl.Node(0))
		for i := 0; i < n; i++ {
			c.Produce(p, fmt.Sprintf("/flow/f%d", i), vfs.SizeOnly(1<<18))
			p.Sleep(10 * time.Millisecond)
		}
	})
	var fetchFirst, fetchRest time.Duration
	e.Spawn("cons", func(p *sim.Proc) {
		c := sys.NewClient(cl.Node(1))
		for i := 0; i < n; i++ {
			p.KeepProfile()
			// Consume lags production by half a period so data is ready
			// for every frame after the first.
			c.Consume(p, fmt.Sprintf("/flow/f%d", i))
			prof := p.Profile()
			ft := prof.TotalOf("dyad_fetch")
			if i == 0 {
				fetchFirst = ft
			} else {
				fetchRest += ft
			}
			p.Sleep(10 * time.Millisecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.KVS().Waits != 1 {
		t.Fatalf("KVS watch-waits %d, want exactly 1 (first touch)", sys.KVS().Waits)
	}
	meanRest := fetchRest / time.Duration(n-1)
	if meanRest*5 > fetchFirst {
		t.Fatalf("fast-path fetch %v not ≪ first-touch fetch %v", meanRest, fetchFirst)
	}
}

func TestAnnotationsMatchDyadRegions(t *testing.T) {
	e := sim.NewEngine(1)
	cl, sys := rig(e, 2)
	var prof *caliper.Profile
	e.Spawn("prod", func(p *sim.Proc) {
		sys.NewClient(cl.Node(0)).Produce(p, "/flow/f0", vfs.SizeOnly(4096))
	})
	e.Spawn("cons", func(p *sim.Proc) {
		p.KeepProfile()
		sys.NewClient(cl.Node(1)).Consume(p, "/flow/f0")
		prof = p.Profile()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, region := range []string{"dyad_consume", "dyad_fetch", "dyad_get_data", "dyad_cons_store", "read_single_buf"} {
		if prof.Root.Find(region) == nil {
			t.Errorf("region %s missing from consumer profile", region)
		}
	}
	// Structure: fetch/get_data/cons_store/read nested under dyad_consume.
	consume := prof.Root.Find("dyad_consume")
	if consume.Find("dyad_get_data") == nil {
		t.Error("dyad_get_data not nested under dyad_consume")
	}
}

func TestSameNodeConsumeSkipsTransferRegions(t *testing.T) {
	e := sim.NewEngine(1)
	cl, sys := rig(e, 1)
	var prof *caliper.Profile
	e.Spawn("prod", func(p *sim.Proc) {
		sys.NewClient(cl.Node(0)).Produce(p, "/flow/f0", vfs.SizeOnly(4096))
	})
	e.Spawn("cons", func(p *sim.Proc) {
		p.KeepProfile()
		sys.NewClient(cl.Node(0)).Consume(p, "/flow/f0")
		prof = p.Profile()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if prof.Root.Find("dyad_get_data") != nil || prof.Root.Find("dyad_cons_store") != nil {
		t.Fatal("same-node consume should not transfer or re-store")
	}
	if prof.Root.Find("read_single_buf") == nil {
		t.Fatal("local read region missing")
	}
}

func TestFlowOf(t *testing.T) {
	cases := map[string]string{
		"/a/b/f0.pb": "/a/b",
		"/f0":        "/",
		"/a/f":       "/a",
	}
	for in, want := range cases {
		if got := flowOf(in); got != want {
			t.Errorf("flowOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestManyPairsConserveBytes(t *testing.T) {
	e := sim.NewEngine(3)
	cl, sys := rig(e, 2)
	pairs, frames := 4, 6
	size := 1 << 16
	consumedBytes := 0
	for pair := 0; pair < pairs; pair++ {
		pair := pair
		e.Spawn(fmt.Sprintf("prod%d", pair), func(p *sim.Proc) {
			c := sys.NewClient(cl.Node(0))
			for f := 0; f < frames; f++ {
				c.Produce(p, fmt.Sprintf("/flow%d/f%d", pair, f), vfs.SizeOnly(int64(size)))
				p.Sleep(time.Duration(p.Rand().Intn(5)) * time.Millisecond)
			}
		})
		e.Spawn(fmt.Sprintf("cons%d", pair), func(p *sim.Proc) {
			c := sys.NewClient(cl.Node(1))
			for f := 0; f < frames; f++ {
				got, _ := c.Consume(p, fmt.Sprintf("/flow%d/f%d", pair, f))
				consumedBytes += int(got.Size())
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if consumedBytes != pairs*frames*size {
		t.Fatalf("consumed %d bytes, want %d", consumedBytes, pairs*frames*size)
	}
	if sys.Produced != int64(pairs*frames) {
		t.Fatalf("produced %d, want %d", sys.Produced, pairs*frames)
	}
}

func TestMultipleConsumersSameFlow(t *testing.T) {
	// DYAD's global namespace lets any number of consumers read the same
	// produced files (broadcast); each gets the full payload.
	e := sim.NewEngine(1)
	cl, sys := rig(e, 3)
	n := 5
	payload := vfs.SizeOnly(1 << 16)
	e.Spawn("prod", func(p *sim.Proc) {
		c := sys.NewClient(cl.Node(0))
		for i := 0; i < n; i++ {
			c.Produce(p, fmt.Sprintf("/flow/f%d", i), payload)
			p.Sleep(time.Millisecond)
		}
	})
	got := make([]int, 2)
	for ci := 0; ci < 2; ci++ {
		ci := ci
		node := cl.Node(1 + ci)
		e.Spawn(fmt.Sprintf("cons%d", ci), func(p *sim.Proc) {
			c := sys.NewClient(node)
			for i := 0; i < n; i++ {
				data, _ := c.Consume(p, fmt.Sprintf("/flow/f%d", i))
				got[ci] += int(data.Size())
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for ci, bytes := range got {
		if bytes != n*(1<<16) {
			t.Fatalf("consumer %d got %d bytes, want %d", ci, bytes, n*(1<<16))
		}
	}
	if sys.Fetched != int64(2*n) {
		t.Fatalf("remote fetches %d, want %d", sys.Fetched, 2*n)
	}
}

// A deployment and its brokers are lent by the engine, and a broker keeps
// its server queue from run to run, so a run after one that stranded a
// process holding a broker's server and another queued at it must get the
// same broker and server back idle: nothing in use, nobody queued, no
// busy time, under its node's name.
func TestLentBrokerServerStartsIdle(t *testing.T) {
	e := sim.NewEngine(1)
	cl, sys := rig(e, 2)
	b := sys.Broker(cl.Node(1))
	e.Spawn("holder", func(p *sim.Proc) {
		b.srv.Acquire(p, 1)
		p.Sleep(time.Millisecond)
		p.Block()
	})
	e.Spawn("waiter", func(p *sim.Proc) { b.srv.Acquire(p, 1) })
	if err := e.Run(); err == nil {
		t.Fatal("the first run stranded nobody")
	}
	if b.srv.InUse() != 1 || b.srv.QueueLen() != 1 || b.srv.BusyUnitNanos() == 0 {
		t.Fatalf("first run left the server %d in use, %d queued, %d busy: the case tests nothing",
			b.srv.InUse(), b.srv.QueueLen(), b.srv.BusyUnitNanos())
	}
	srv := b.srv
	e.Reset(2)
	cl.Reset()
	sys = New(cl, cl.Node(0), DefaultParams())
	b2 := sys.Broker(cl.Node(1))
	if b2 != b || b2.srv != srv {
		t.Fatalf("the next run got broker %p server %p, want the lent %p and %p", b2, b2.srv, b, srv)
	}
	if srv.InUse() != 0 || srv.QueueLen() != 0 || srv.BusyUnitNanos() != 0 || srv.Name() != "node1/dyad-broker" {
		t.Errorf("lent server %q starts with %d in use, %d queued, %d busy", srv.Name(),
			srv.InUse(), srv.QueueLen(), srv.BusyUnitNanos())
	}
}
