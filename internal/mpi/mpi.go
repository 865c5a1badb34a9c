// Package mpi models the message-passing primitive the paper's workflow
// uses for manual synchronization on XFS and Lustre: the per-pair
// doorbell whose wait time the study reports as idle time
// ("explicit_sync").
package mpi

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// msgBytes is the size of a control message on the wire.
const msgBytes = 64

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

// notifies is the engines' free list of doorbells.
var notifies = sim.NewFreeList[Notify]()

// NewNotify creates a doorbell from src to dst, lent by the cluster's
// engine (sim.FreeList.Lend) with the waiter array an earlier run grew:
// the doorbell is valid until the engine's next Reset.
func NewNotify(cl *cluster.Cluster, src, dst *cluster.Node) *Notify {
	n := notifies.Lend(cl.Engine())
	clear(n.waiters) // a killed run's waiters
	*n = Notify{cl: cl, src: src, dst: dst, waiters: n.waiters[:0]}
	return n
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
