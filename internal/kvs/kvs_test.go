package kvs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func newStore(e *sim.Engine, nodes int) (*cluster.Cluster, *Store) {
	cl := cluster.New(e, cluster.CoronaProfile(nodes))
	return cl, New(cl, cl.Node(0), DefaultParams())
}

func TestCommitThenLookup(t *testing.T) {
	e := sim.NewEngine(1)
	cl, s := newStore(e, 2)
	e.Spawn("c", func(p *sim.Proc) {
		s.Commit(p, cl.Node(1), "k", Record{Owner: 7})
		v, err := s.Lookup(p, cl.Node(1), "k")
		if err != nil || v != (Record{Owner: 7}) {
			t.Errorf("lookup = %+v, %v", v, err)
		}
		if _, err := s.Lookup(p, cl.Node(1), "missing"); !errors.Is(err, ErrNoSuchKey) {
			t.Errorf("missing key: err = %v, want ErrNoSuchKey", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Commits != 1 || s.Lookups != 2 {
		t.Fatalf("counters commits=%d lookups=%d", s.Commits, s.Lookups)
	}
}

func TestWaitForBlocksUntilCommit(t *testing.T) {
	e := sim.NewEngine(1)
	cl, s := newStore(e, 3)
	var consumerGot sim.Time
	e.Spawn("consumer", func(p *sim.Proc) {
		v := s.WaitFor(p, cl.Node(2), "frame0")
		consumerGot = p.Now()
		if v != (Record{Owner: 1}) {
			t.Errorf("WaitFor record %+v", v)
		}
	})
	e.Spawn("producer", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond)
		s.Commit(p, cl.Node(1), "frame0", Record{Owner: 1})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if consumerGot < 50*time.Millisecond {
		t.Fatalf("consumer resumed at %v, before the commit", consumerGot)
	}
	if s.Waits != 1 {
		t.Fatalf("waits %d, want 1", s.Waits)
	}
}

func TestWaitForPresentKeyIsCheap(t *testing.T) {
	e := sim.NewEngine(1)
	cl, s := newStore(e, 2)
	var waitCost time.Duration
	e.Spawn("c", func(p *sim.Proc) {
		s.Commit(p, cl.Node(1), "k", Record{Owner: 1})
		t0 := p.Now()
		s.WaitFor(p, cl.Node(1), "k")
		waitCost = p.Now() - t0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Waits != 0 {
		t.Fatalf("present key registered a watch")
	}
	if waitCost > time.Millisecond {
		t.Fatalf("WaitFor on present key cost %v", waitCost)
	}
}

func TestMultipleWatchersAllWake(t *testing.T) {
	e := sim.NewEngine(1)
	cl, s := newStore(e, 4)
	woke := 0
	for i := 1; i <= 3; i++ {
		node := cl.Node(i)
		e.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			s.WaitFor(p, node, "k")
			woke++
		})
	}
	e.Spawn("producer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s.Commit(p, cl.Node(0), "k", Record{Owner: 1})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 3 {
		t.Fatalf("woke %d watchers, want 3", woke)
	}
}

func TestServerQueuesConcurrentCommits(t *testing.T) {
	// Many simultaneous commits serialize at the single KVS server, so the
	// end-to-end time is at least n * CommitService.
	e := sim.NewEngine(1)
	cl, s := newStore(e, 2)
	n := 16
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		e.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			s.Commit(p, cl.Node(1), key, Record{Owner: 1})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	min := time.Duration(n) * DefaultParams().CommitService
	if e.Now() < min {
		t.Fatalf("end %v, want >= %v (server serialization)", e.Now(), min)
	}
	if s.Len() != n {
		t.Fatalf("stored %d keys, want %d", s.Len(), n)
	}
}

func TestWatchWaitAlwaysPaysRegistration(t *testing.T) {
	e := sim.NewEngine(1)
	cl, s := newStore(e, 2)
	var adaptive, always time.Duration
	e.Spawn("c", func(p *sim.Proc) {
		s.Commit(p, cl.Node(1), "k", Record{Owner: 1})
		t0 := p.Now()
		s.WaitFor(p, cl.Node(1), "k") // adaptive: present key -> cheap lookup
		adaptive = p.Now() - t0
		t1 := p.Now()
		s.WatchWait(p, cl.Node(1), "k") // non-adaptive: registration + notify
		always = p.Now() - t1
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if always <= adaptive {
		t.Fatalf("WatchWait (%v) should cost more than adaptive WaitFor (%v)", always, adaptive)
	}
}

func TestWatchWaitBlocksUntilCommit(t *testing.T) {
	e := sim.NewEngine(1)
	cl, s := newStore(e, 2)
	var got Record
	var at sim.Time
	e.Spawn("c", func(p *sim.Proc) {
		got = s.WatchWait(p, cl.Node(1), "late")
		at = p.Now()
	})
	e.Spawn("p", func(p *sim.Proc) {
		p.Sleep(30 * time.Millisecond)
		s.Commit(p, cl.Node(0), "late", Record{Owner: 9})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != (Record{Owner: 9}) || at < 30*time.Millisecond {
		t.Fatalf("WatchWait got %+v at %v", got, at)
	}
}
