package mpi

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestBarrierSynchronizesRanks(t *testing.T) {
	e := sim.NewEngine(1)
	cl := cluster.New(e, cluster.CoronaProfile(2))
	comm := NewComm(cl, []*cluster.Node{cl.Node(0), cl.Node(1)})
	var wait0, wait1 time.Duration
	var exit0, exit1 sim.Time
	e.Spawn("rank0", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		wait0 = comm.Barrier(p, 0)
		exit0 = p.Now()
	})
	e.Spawn("rank1", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		wait1 = comm.Barrier(p, 1)
		exit1 = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Rank 0 arrived 9ms early: its wait must absorb that gap.
	if wait0 < 9*time.Millisecond {
		t.Fatalf("early rank waited %v, want >= 9ms", wait0)
	}
	if wait1 > time.Millisecond {
		t.Fatalf("late rank waited %v, want ~0", wait1)
	}
	if exit0 < 10*time.Millisecond || exit1 < 10*time.Millisecond {
		t.Fatalf("ranks exited at %v/%v before the last arrival", exit0, exit1)
	}
	if comm.Barriers != 1 {
		t.Fatalf("barrier count %d", comm.Barriers)
	}
}

func TestBarrierReusableAcrossRounds(t *testing.T) {
	e := sim.NewEngine(1)
	cl := cluster.New(e, cluster.CoronaProfile(2))
	comm := NewComm(cl, []*cluster.Node{cl.Node(0), cl.Node(1)})
	rounds := 5
	counts := make([]int, 2)
	for rank := 0; rank < 2; rank++ {
		e.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				p.Sleep(time.Duration(1+rank) * time.Millisecond)
				comm.Barrier(p, idxOf(p))
				counts[idxOf(p)]++
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if counts[0] != rounds || counts[1] != rounds {
		t.Fatalf("rounds completed %v, want %d each", counts, rounds)
	}
	if comm.Barriers != int64(rounds) {
		t.Fatalf("barrier rounds %d, want %d", comm.Barriers, rounds)
	}
}

// idxOf maps the test's process names rank0/rank1 to ranks.
func idxOf(p *sim.Proc) int {
	if p.Name() == "rank0" {
		return 0
	}
	return 1
}

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

func TestSendChargesWire(t *testing.T) {
	e := sim.NewEngine(1)
	cl := cluster.New(e, cluster.CoronaProfile(2))
	comm := NewComm(cl, []*cluster.Node{cl.Node(0), cl.Node(1)})
	e.Spawn("s", func(p *sim.Proc) {
		comm.Send(p, 0, 1, 1<<20)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if cl.BytesOnWire < 1<<20 {
		t.Fatalf("wire bytes %d, want >= 1 MiB", cl.BytesOnWire)
	}
}
