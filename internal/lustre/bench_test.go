package lustre

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// BenchmarkWrite1MiB measures simulator throughput of striped Lustre
// writes (host time per simulated 1 MiB file write).
func BenchmarkWrite1MiB(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine(1)
	cl, fs := testRig(e, 1, 4)
	c := fs.Client(cl.Node(0))
	payload := vfs.BytesPayload(make([]byte, 1<<20))
	e.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := c.WriteFile(p, fmt.Sprintf("/f%d", i), payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLustreFileOps is whole-file I/O by overlapping clients: 4
// clients on 4 nodes each write 4 files of 3 stripe chunks over 2 OSTs
// and read a neighbour's back, under background load. One op is one fresh
// engine and rig run to completion; handoffs/op counts the goroutine
// switches it paid for (each file operation's RPCs run as one chain).
func BenchmarkLustreFileOps(b *testing.B) {
	b.ReportAllocs()
	const clients, osts = 4, 2
	paths := make([][]string, clients)
	for i := range paths {
		for k := 0; k < 4; k++ {
			paths[i] = append(paths[i], fmt.Sprintf("/c%d/f%d", i, k))
		}
	}
	var handoffs int64
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine(1)
		cl, fs := testRig(e, clients, osts)
		fs.params.StripeSize, fs.params.StripeCount, fs.params.BackgroundLoad = 256<<10, 2, 0.12
		fs.StartNoise()
		left := clients
		for c := 0; c < clients; c++ {
			client := fs.Client(cl.Node(c))
			e.Spawn("client", func(p *sim.Proc) {
				for _, path := range paths[c] {
					if err := client.WriteFile(p, path, vfs.SizeOnly(640<<10)); err != nil {
						b.Error(err)
					}
				}
				for _, path := range paths[(c+1)%clients] {
					if _, err := client.ReadFile(p, path); err != nil && !errors.Is(err, vfs.ErrNotExist) {
						b.Error(err)
					}
				}
				if left--; left == 0 {
					fs.StopNoise()
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		handoffs += e.Handoffs()
	}
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/op")
}
