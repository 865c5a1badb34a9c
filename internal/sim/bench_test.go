package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

// BenchmarkSleepEvents measures kernel throughput: one process sleeping
// b.N times (schedule + queue + the parking fast path per event). The
// steady-state allocation budget is zero: deliver events carry a proc
// index, not a closure, and the queue's arrays are reused.
func BenchmarkSleepEvents(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkManyProcs measures coroutine handoffs across 100 interleaved
// procs: each op is one sleep event and one switch to another process.
func BenchmarkManyProcs(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	const procs = 100
	steps := b.N/procs + 1
	e.Prealloc(procs, procs+1)
	for i := 0; i < procs; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for s := 0; s < steps; s++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRegion measures the instrumentation hooks alone: one op opens
// a Region, a Span inside it and a Phase inside that, then closes all
// three, with every sink off and no simulated time passing. It runs on a
// process without a profile, which still tallies the region classes, and
// on one that keeps a profile. Both report 0 allocs/op: the timer starts
// after a first cycle has carved the profile's call paths.
func BenchmarkRegion(b *testing.B) {
	for _, keep := range []bool{false, true} {
		name := "noprofile"
		if keep {
			name = "profile"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			e := NewEngine(1)
			e.Spawn("p", func(p *Proc) {
				if keep {
					p.KeepProfile()
				}
				cycle := func() {
					r := p.Region("bench", "outer", trace.ClassMovement)
					s := p.Span("bench", "wait", trace.ClassIdle)
					ph := p.Phase("inner")
					ph.End()
					s.End(0, "")
					r.End(0, "")
				}
				cycle()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycle()
				}
				b.StopTimer()
			})
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkResourceContention measures queued grants under contention.
func BenchmarkResourceContention(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	r := NewResource(e, "dev", 1)
	const procs = 16
	steps := b.N/procs + 1
	for i := 0; i < procs; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for s := 0; s < steps; s++ {
				r.Use(p, 100*time.Nanosecond)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWakeBlock measures the Block/Wake handoff fast path: two
// processes handing control back and forth with no timer events involved.
func BenchmarkWakeBlock(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	var pa, pb *Proc
	rounds := b.N/2 + 1
	pa = e.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Block()
			pb.Wake()
		}
	})
	pb = e.Spawn("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			pa.Wake()
			p.Block()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHeapChurn10k measures push/pop throughput with 10k+ events
// resident in the queue: every proc keeps one pending timer, so each Sleep
// churns a deep pending set through the ladder's rungs. This is the
// paper-scale regime (thousands of concurrent producer/consumer/server
// processes). A warm run grows every queue structure and runtime pool to
// its high-water mark before the timer, and the timed region asserts the
// steady-state zero-allocation contract: 0 B/op. The engine is retained,
// so the measured run's processes reuse the warm run's coroutines, whose
// set-up (iter.Pull's yield closure, made on a coroutine's first resume)
// is then already paid.
func BenchmarkHeapChurn10k(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	e.Retain()
	defer e.Close()
	const procs = 10_000
	spawn := func(steps int) {
		for i := 0; i < procs; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for s := 0; s < steps; s++ {
					// Spread wakeups so the queue stays full and ordering
					// work is non-trivial (random keys, not FIFO).
					p.Sleep(time.Duration(1+p.Rand().Intn(1000)) * time.Microsecond)
				}
			})
		}
	}
	steps := b.N/procs + 1
	// Warm run: the identical workload (same seed, same length), so every
	// queue structure and runtime pool reaches the exact high-water mark of
	// the measured run, which then allocates nothing.
	e.Prealloc(procs, procs+1)
	spawn(steps)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	e.Reset(1)
	e.Prealloc(procs, procs+1)
	spawn(steps)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	events := float64(procs) * float64(steps)
	if avg := float64(m1.TotalAlloc-m0.TotalAlloc) / events; avg >= 1 {
		b.Fatalf("steady-state churn allocated %.2f B/op, want 0", avg)
	}
}

// BenchmarkScaleEvents measures the queue's steady-state hold-model churn
// (pop the earliest event, push its successor a random hold later) at 16
// to 1M resident events, from paper-sized runs to fleet scale; DESIGN.md
// §3h compares the depths against a 4-ary heap. Those rows draw holds
// uniformly from 1 ns to 1 ms. The 32/near row has the shape of the paper
// workloads instead: a few events held 1–3 s (Lustre noise, frame compute)
// fix wide rung buckets, and the rest churn with short holds, 7 in 8 of
// 1–10 µs (wire, hop) and the others up to 1 ms (SSD op), so nearly every
// push lands in the bottom band ahead of most of it. The 1k/same-instant
// row drives the same-instant lane: each event the ladder pops fans out
// into 8 events due at its instant (pushNow), the way a grant or a notify
// wakes its waiters, and the last of them takes the uniform hold to its
// successor.
func BenchmarkScaleEvents(b *testing.B) {
	depths := []struct {
		name    string
		pending int
		far     int // events held 1–3 s; the rest take short holds
		fan     int // events due now that each ladder event fans out into
	}{
		{"16", 16, 0, 0},
		{"64", 64, 0, 0},
		{"256", 256, 0, 0},
		{"1k", 1_000, 0, 0},
		{"100k", 100_000, 0, 0},
		{"1M", 1_000_000, 0, 0},
		{"32/near", 32, 4, 0},
		{"1k/same-instant", 1_000, 0, 8},
	}
	for _, d := range depths {
		b.Run("pending="+d.name, func(b *testing.B) {
			b.ReportAllocs()
			var q eventq
			q.grow(d.pending + 1)
			rng := NewRNG(9)
			hold := func(far bool) Time {
				switch {
				case far:
					return Time(1+rng.Intn(3000)) * time.Millisecond
				case d.far == 0:
					return Time(1 + rng.Intn(1_000_000)) // 1ns..1ms
				case rng.Intn(8) == 0:
					return Time(10_000 + rng.Intn(990_000)) // 10µs..1ms
				default:
					return Time(1_000 + rng.Intn(9_000)) // 1µs..10µs
				}
			}
			var seq int64
			// A far event is tagged proc 0 so that its successor is far too.
			push := func(at Time, far bool) {
				proc := noProc
				if far {
					proc = 0
				}
				q.push(event{at: at, seq: seq, proc: proc})
				seq++
			}
			for i := 0; i < d.pending; i++ {
				push(hold(i < d.far), i < d.far)
			}
			// Churn to the steady-state high-water mark before timing:
			// at least one full band-recycle of the queue, and no
			// shorter than the measured run itself.
			warm := 2 * d.pending
			if warm < b.N {
				warm = b.N
			}
			// A fanned-out event is tagged with its place 1..fan in the fan.
			churn := func() {
				ev := q.pop()
				switch {
				case d.fan > 0 && ev.proc == noProc:
					for i := int32(1); i <= int32(d.fan); i++ {
						q.pushNow(event{at: ev.at, seq: seq, proc: i})
						seq++
					}
				case ev.proc > 0 && ev.proc < int32(d.fan):
					// Not the last of its fan: no successor.
				default:
					far := ev.proc == 0
					push(ev.at+hold(far), far)
				}
			}
			for i := 0; i < warm; i++ {
				churn()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				churn()
			}
		})
	}
}

// BenchmarkRNG measures the deterministic random stream.
func BenchmarkRNG(b *testing.B) {
	b.ReportAllocs()
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
