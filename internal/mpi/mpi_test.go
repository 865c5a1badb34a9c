package mpi

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestNotifyWaitSeq(t *testing.T) {
	e := sim.NewEngine(1)
	cl := cluster.New(e, cluster.CoronaProfile(2))
	n := NewNotify(cl, cl.Node(0), cl.Node(1))
	var waited time.Duration
	e.Spawn("consumer", func(p *sim.Proc) {
		waited = n.WaitSeq(p, 3) // needs three posts
		if p.Now() < 3*time.Millisecond {
			t.Errorf("woke at %v before third post", p.Now())
		}
	})
	e.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Millisecond)
			n.Post(p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if waited < 3*time.Millisecond {
		t.Fatalf("consumer waited %v, want >= 3ms", waited)
	}
}

func TestNotifyWaitSeqAlreadyPosted(t *testing.T) {
	e := sim.NewEngine(1)
	cl := cluster.New(e, cluster.CoronaProfile(2))
	n := NewNotify(cl, cl.Node(0), cl.Node(1))
	e.Spawn("producer", func(p *sim.Proc) {
		n.Post(p)
		n.Post(p)
	})
	e.Spawn("consumer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		w := n.WaitSeq(p, 2)
		if w != 0 {
			t.Errorf("wait on already-posted seq took %v", w)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Post wakes every satisfied waiter in the order they began waiting, keeps
// the rest queued, and clears the slots it vacates so a finished process is
// not pinned by the doorbell.
func TestNotifyPostWakeOrderAndUnpin(t *testing.T) {
	e := sim.NewEngine(1)
	cl := cluster.New(e, cluster.CoronaProfile(2))
	n := NewNotify(cl, cl.Node(0), cl.Node(1))
	var woke []string
	for _, w := range []struct {
		name  string
		seqno int
	}{{"a", 1}, {"b", 2}, {"c", 1}, {"d", 2}} {
		e.Spawn(w.name, func(p *sim.Proc) {
			n.WaitSeq(p, w.seqno)
			woke = append(woke, p.Name())
		})
	}
	e.Spawn("producer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		n.Post(p)
		if len(n.waiters) != 2 || n.waiters[0].p.Name() != "b" || n.waiters[1].p.Name() != "d" {
			t.Errorf("after one post, %d waiters left, want b and d", len(n.waiters))
		}
		p.Sleep(time.Millisecond)
		n.Post(p)
		for i, w := range n.waiters[:cap(n.waiters)] {
			if w.p != nil {
				t.Errorf("slot %d still pins %s after every waiter woke", i, w.p.Name())
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(woke); got != "[a c b d]" {
		t.Errorf("wake order %s, want [a c b d]", got)
	}
}
