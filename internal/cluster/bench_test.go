package cluster

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkTransferFanIn is incast onto one NIC: 8 processes on 8 nodes
// each send 4 MiB to node 0 at once. Their 16 segments each interleave in
// virtual time and their receive completions queue at node 0's NIC. One
// op is one fresh engine and cluster run to completion; handoffs/op counts
// the goroutine switches it paid for.
func BenchmarkTransferFanIn(b *testing.B) {
	b.ReportAllocs()
	var handoffs int64
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine(1)
		c := New(e, CoronaProfile(9))
		for s := 1; s <= 8; s++ {
			src := c.Node(s)
			e.Spawn("sender", func(p *sim.Proc) { c.Transfer(p, src, c.Node(0), 4<<20) })
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		handoffs += e.Handoffs()
	}
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/op")
}
