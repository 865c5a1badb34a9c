package cluster

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// BenchmarkTransferFanIn is incast onto one NIC: 8 processes on 8 nodes
// each send 4 MiB to node 0 at once. Their 16 segments each interleave in
// virtual time and their receive completions queue at node 0's NIC. One
// op is one fresh engine and cluster run to completion; handoffs/op counts
// the coroutine switches it paid for. The chain sub-benchmark runs
// Transfer, the ref one the blocking reference loop it replaced
// (refTransfer), which yields once per step: their gap is what the chain
// saves over straight-line code.
func BenchmarkTransferFanIn(b *testing.B) {
	b.Run("chain", func(b *testing.B) { benchFanIn(b, (*Cluster).Transfer) })
	b.Run("ref", func(b *testing.B) { benchFanIn(b, refTransfer) })
}

func benchFanIn(b *testing.B, transfer func(c *Cluster, p *sim.Proc, src, dst *Node, n int64) time.Duration) {
	b.ReportAllocs()
	var handoffs int64
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine(1)
		c := New(e, CoronaProfile(9))
		for s := 1; s <= 8; s++ {
			src := c.Node(s)
			e.Spawn("sender", func(p *sim.Proc) { transfer(c, p, src, c.Node(0), 4<<20) })
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		handoffs += e.Handoffs()
	}
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/op")
}
