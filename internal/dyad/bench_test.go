package dyad

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// BenchmarkProduceConsume measures simulator throughput of full DYAD
// produce+consume round trips (host time per simulated transfer).
func BenchmarkProduceConsume(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine(1)
	cl := cluster.New(e, cluster.CoronaProfile(2))
	sys := New(cl, cl.Node(0), DefaultParams())
	payload := vfs.BytesPayload(make([]byte, 1<<16))
	e.Spawn("prod", func(p *sim.Proc) {
		c := sys.NewClient(cl.Node(0))
		for i := 0; i < b.N; i++ {
			c.Produce(p, fmt.Sprintf("/flow/f%d", i), payload)
		}
	})
	e.Spawn("cons", func(p *sim.Proc) {
		c := sys.NewClient(cl.Node(1))
		for i := 0; i < b.N; i++ {
			c.Consume(p, fmt.Sprintf("/flow/f%d", i))
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
