// Package mpi models the message-passing primitives the paper's workflow
// uses for manual synchronization on XFS and Lustre: point-to-point sends
// and the per-pair MPI_Barrier whose wait time the study reports as idle
// time ("explicit_sync").
package mpi

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// msgBytes is the size of a barrier/control message on the wire.
const msgBytes = 64

// Comm is a communicator over a fixed set of ranks, each pinned to a node.
type Comm struct {
	cl    *cluster.Cluster
	nodes []*cluster.Node

	arrived int
	release *sim.Latch

	Barriers int64
}

// NewComm builds a communicator whose rank i lives on nodes[i].
func NewComm(cl *cluster.Cluster, nodes []*cluster.Node) *Comm {
	if len(nodes) < 1 {
		panic("mpi: communicator needs at least one rank")
	}
	return &Comm{cl: cl, nodes: nodes, release: &sim.Latch{}}
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.nodes) }

func (c *Comm) checkRank(rank int) {
	if rank < 0 || rank >= len(c.nodes) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, len(c.nodes)))
	}
}

// Send transmits n payload bytes from rank src to rank dst (eager protocol:
// the sender pays the wire time and returns).
func (c *Comm) Send(p *sim.Proc, src, dst int, n int64) {
	c.checkRank(src)
	c.checkRank(dst)
	c.cl.Transfer(p, c.nodes[src], c.nodes[dst], msgBytes+n)
}

// Barrier blocks rank until every rank has entered the barrier, then
// returns. It returns the time the caller spent inside (the paper's idle
// time for the traditional backends). Implementation is the classic
// centralized gather-at-rank-0 + broadcast release.
func (c *Comm) Barrier(p *sim.Proc, rank int) time.Duration {
	c.checkRank(rank)
	start := p.Now()
	// Arrival message to rank 0 (free if we are rank 0).
	if rank != 0 {
		c.cl.Transfer(p, c.nodes[rank], c.nodes[0], msgBytes)
	}
	c.arrived++
	if c.arrived == len(c.nodes) {
		// Last arriver releases everyone and resets for the next round.
		c.arrived = 0
		c.Barriers++
		l := c.release
		c.release = &sim.Latch{}
		l.Fire()
	} else {
		c.release.Wait(p)
	}
	// Release broadcast from rank 0 back to this rank.
	if rank != 0 {
		c.cl.Transfer(p, c.nodes[0], c.nodes[rank], msgBytes)
	}
	return p.Now() - start
}

// Notify is a one-way doorbell from src to dst: the sender pays one small
// message, the receiver observes it via its own Waiter. It underpins the
// "producer posts, consumer polls/waits" coupling of the coarse-grained
// synchronization scheme.
type Notify struct {
	cl       *cluster.Cluster
	src, dst *cluster.Node
	posted   int
	waiters  []waiter
}

type waiter struct {
	p     *sim.Proc
	seqno int
}

// NewNotify creates a doorbell from src to dst.
func NewNotify(cl *cluster.Cluster, src, dst *cluster.Node) *Notify {
	return &Notify{cl: cl, src: src, dst: dst}
}

// Post rings the doorbell (the k-th post unblocks waiters of seqno <= k).
func (n *Notify) Post(p *sim.Proc) {
	n.cl.Transfer(p, n.src, n.dst, msgBytes)
	n.posted++
	rest := n.waiters[:0]
	for _, w := range n.waiters {
		if w.seqno <= n.posted {
			w.p.Wake()
		} else {
			rest = append(rest, w)
		}
	}
	clear(n.waiters[len(rest):]) // unpin the woken processes
	n.waiters = rest
}

// WaitSeq blocks until at least seqno posts have occurred and returns the
// time spent waiting.
func (n *Notify) WaitSeq(p *sim.Proc, seqno int) time.Duration {
	start := p.Now()
	if n.posted < seqno {
		n.waiters = append(n.waiters, waiter{p: p, seqno: seqno})
		p.Block()
	}
	return p.Now() - start
}
