package lustre

import (
	"errors"
	"fmt"
	"testing"
	"time"

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
// engine and rig run to completion; handoffs/op counts the coroutine
// switches it paid for. The chain sub-benchmark runs each file operation's
// RPCs as one chain (WriteFile, ReadFile), the ref one as the blocking
// reference sequence they replaced (refWriteFile, refReadFile), which
// resumes its process after every RPC.
func BenchmarkLustreFileOps(b *testing.B) {
	b.Run("chain", func(b *testing.B) { benchFileOps(b, chainFile) })
	b.Run("ref", func(b *testing.B) { benchFileOps(b, refFile) })
}

func benchFileOps(b *testing.B, impl fileImpl) {
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
					if err := impl.write(client, p, path, vfs.SizeOnly(640<<10)); err != nil {
						b.Error(err)
					}
				}
				for _, path := range paths[(c+1)%clients] {
					if _, err := impl.read(client, p, path); err != nil && !errors.Is(err, vfs.ErrNotExist) {
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

// BenchmarkLustreNoise is background load with little else: 4 OSTs at 40%
// load while one client writes 8 files of 2 stripe chunks, 10 ms apart,
// then stops the noise. One op is one fresh engine and rig run to
// completion; handoffs/op counts the coroutine switches it paid for. The
// chain sub-benchmark runs each OST's noise as the goroutine-free state
// machine (StartNoise), the ref one as the goroutine loop it replaced
// (startNoiseGoroutines), which resumes its process after every gap and
// every burst.
func BenchmarkLustreNoise(b *testing.B) {
	b.Run("chain", func(b *testing.B) { benchNoise(b, (*FS).StartNoise) })
	b.Run("ref", func(b *testing.B) { benchNoise(b, startNoiseGoroutines) })
}

func benchNoise(b *testing.B, start func(*FS)) {
	b.ReportAllocs()
	const osts = 4
	paths := make([]string, 8)
	for k := range paths {
		paths[k] = fmt.Sprintf("/f%d", k)
	}
	var handoffs int64
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine(1)
		cl, fs := testRig(e, 1, osts)
		fs.params.StripeSize, fs.params.StripeCount, fs.params.BackgroundLoad = 256<<10, 2, 0.4
		start(fs)
		client := fs.Client(cl.Node(0))
		e.Spawn("client", func(p *sim.Proc) {
			for _, path := range paths {
				if err := client.WriteFile(p, path, vfs.SizeOnly(512<<10)); err != nil {
					b.Error(err)
				}
				p.Sleep(10 * time.Millisecond)
			}
			fs.StopNoise()
		})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		handoffs += e.Handoffs()
	}
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/op")
}
