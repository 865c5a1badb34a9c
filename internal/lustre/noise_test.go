package lustre

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/critpath"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// startNoiseGoroutines is the goroutine-per-OST noise loop that StartNoise
// replaced, kept as the reference the goroutine-free version must match.
func startNoiseGoroutines(f *FS) { startNoiseLoop(f, 2*time.Millisecond, nil) }

// startNoiseLoop is the reference loop with bursts of the given mean. When
// steps is not nil it records the instant of each step: every gap's end
// and every burst's end, in turn.
func startNoiseLoop(f *FS, burst time.Duration, steps *[]sim.Time) {
	if f.params.BackgroundLoad <= 0 {
		return
	}
	for i, o := range f.osts {
		o := o
		f.cl.Engine().Spawn(fmt.Sprintf("lustre-noise-%d", i), func(p *sim.Proc) {
			p.CritBackground()
			p.CritBegin("lustre", "background_noise", trace.ClassDetail)
			gap := time.Duration(float64(burst) * (1 - f.params.BackgroundLoad) / f.params.BackgroundLoad)
			for n := 0; n < 1_000_000; n++ {
				p.Sleep(p.Rand().Exp(gap))
				if steps != nil {
					*steps = append(*steps, p.Now())
				}
				o.srv.Use(p, p.Rand().Exp(burst))
				if steps != nil {
					*steps = append(*steps, p.Now())
				}
				if f.noiseStop {
					return
				}
			}
		})
	}
}

// noisyRun is everything a noise implementation can change about a run.
type noisyRun struct {
	events int64
	busy   int64      // the OST's busy integral at the end of the run
	done   []sim.Time // the client's completion times
	seen   []int      // what the client read of the OST
	series []int64    // the OST's busy integral and units in use at each sample boundary
	graph  *critpath.Graph
	end    sim.Time
	steps  []sim.Time // the goroutine loop's steps, gap ends and burst ends in turn
}

// noiseCase is one scenario: a single OST with noise of the given burst
// mean, and a client that runs against it, spawned before the noise when
// clientFirst.
type noiseCase struct {
	burst       time.Duration
	load        float64
	sample      time.Duration
	clientFirst bool
	client      func(p *sim.Proc, fs *FS, c *Client, out *noisyRun)
}

// run runs c under the given seed with critical-path recording and a
// sampler reading the OST's busy integral and units in use at every
// boundary, the noise started by start.
func (c noiseCase) run(t *testing.T, seed uint64, start func(fs *FS, burst time.Duration, out *noisyRun)) noisyRun {
	t.Helper()
	e := sim.NewEngine(seed)
	cp := critpath.NewRecorder()
	e.SetCritRecorder(cp)
	cl := cluster.New(e, cluster.CoronaProfile(3))
	params := DefaultParams()
	params.BackgroundLoad = c.load
	fs := New(cl, cl.Node(1), []*cluster.Node{cl.Node(2)}, params)
	var out noisyRun
	spawn := func() {
		e.Spawn("client", func(p *sim.Proc) {
			p.CritBegin("workflow", "io", trace.ClassMovement)
			c.client(p, fs, fs.Client(cl.Node(0)), &out)
			p.CritEnd()
		})
	}
	if c.clientFirst {
		spawn()
	}
	start(fs, c.burst, &out)
	if !c.clientFirst {
		spawn()
	}
	srv := fs.osts[0].srv
	e.SetSampler(c.sample, func(sim.Time) { out.series = append(out.series, srv.BusyUnitNanos(), int64(srv.InUse())) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	out.events = e.Events()
	out.end = e.Now()
	out.busy = srv.BusyUnitNanos()
	out.graph = cp.Finish(e.Now())
	return out
}

func refNoise(fs *FS, burst time.Duration, out *noisyRun)  { startNoiseLoop(fs, burst, &out.steps) }
func bookedNoise(fs *FS, burst time.Duration, _ *noisyRun) { fs.startNoise(burst) }

// check runs c under seed with the booked noise and with the goroutine
// loop, reports every way the two differ but the events, and returns both.
func (c noiseCase) check(t *testing.T, seed uint64) (got, ref noisyRun) {
	t.Helper()
	got, ref = c.run(t, seed, bookedNoise), c.run(t, seed, refNoise)
	if got.end != ref.end {
		t.Errorf("run ends at %v, goroutine loop at %v", got.end, ref.end)
	}
	if got.busy != ref.busy {
		t.Errorf("OST busy integral %d, goroutine loop %d", got.busy, ref.busy)
	}
	if !reflect.DeepEqual(got.done, ref.done) {
		t.Errorf("client completions differ:\n got %v\nwant %v", got.done, ref.done)
	}
	if !reflect.DeepEqual(got.seen, ref.seen) {
		t.Errorf("client reads of the OST differ:\n got %v\nwant %v", got.seen, ref.seen)
	}
	if !reflect.DeepEqual(got.series, ref.series) {
		t.Errorf("sampled busy integral and units in use differ:\n got %v\nwant %v", got.series, ref.series)
	}
	if !reflect.DeepEqual(got.graph.Edges, ref.graph.Edges) {
		t.Errorf("critical-path edges differ:\n got %v\nwant %v", got.graph.Edges, ref.graph.Edges)
	}
	if !reflect.DeepEqual(got.graph.Procs, ref.graph.Procs) {
		t.Errorf("critical-path process timelines differ:\n got %+v\nwant %+v", got.graph.Procs, ref.graph.Procs)
	}
	return got, ref
}

// fewerPinned checks that the booked noise fired fewer events than the
// goroutine loop, and exactly as many as pinned.
func fewerPinned(t *testing.T, got, ref, pinned int64) {
	t.Helper()
	if got >= ref || got != pinned {
		t.Errorf("%d events, pinned at %d, fewer than the goroutine loop's %d", got, pinned, ref)
	}
}

// releaseEdges counts the critical-path release edges from the noise
// (process 0) to the client (process 1) and back: each edge is bound to
// the wait segment its target closed.
func releaseEdges(g *critpath.Graph) (toClient, toNoise int) {
	for to, pt := range g.Procs {
		for _, s := range pt.Segments {
			if s.Kind != critpath.Wait || s.Edge < 0 {
				continue
			}
			switch from := g.Edges[s.Edge].From; {
			case from == 0 && to == 1:
				toClient++
			case from == 1 && to == 0:
				toNoise++
			}
		}
	}
	return toClient, toNoise
}

// writeRead is a client writing and reading back files of the given size,
// with exponential pauses of the given mean, then stopping the noise.
func writeRead(files int, size int64, pause time.Duration) func(p *sim.Proc, fs *FS, c *Client, out *noisyRun) {
	return func(p *sim.Proc, fs *FS, c *Client, out *noisyRun) {
		for i := 0; i < files; i++ {
			path := fmt.Sprintf("/f%d", i)
			if err := c.WriteFile(p, path, vfs.SizeOnly(size)); err != nil {
				panic(err)
			}
			if _, err := c.ReadFile(p, path); err != nil {
				panic(err)
			}
			out.done = append(out.done, p.Now())
			p.Sleep(p.Rand().Exp(pause))
		}
		fs.StopNoise()
	}
}

// The goroutine-free, booked noise is the goroutine loop's timeline: the
// same client completions and reads of the OST, OST occupancy at the end
// and at every sample boundary, critical-path graph (every release edge
// attributed to the same process at the same instant) and end of run, in
// fewer events. The event counts are pinned: they move only with a
// change of how the noise books its steps.
func TestNoiseMatchesGoroutineLoop(t *testing.T) {
	seeds := []uint64{42, 1, 7, 1234}
	for _, c := range []struct {
		name   string
		c      noiseCase
		events []int64 // the booked noise's, by seed
	}{
		// Heavy contention for one OST, both ways.
		{"contended", noiseCase{burst: 2 * time.Millisecond, load: 0.4, sample: 250 * time.Microsecond,
			client: writeRead(40, 512<<10, 3*time.Millisecond)}, []int64{1684, 1670, 1664, 1671}},
		// A client that comes by now and then: most bookings run out.
		{"sparse", noiseCase{burst: 2 * time.Millisecond, load: 0.12, sample: time.Millisecond,
			client: writeRead(12, 64<<10, 60*time.Millisecond)}, []int64{470, 457, 474, 467}},
		// Bursts and gaps of tens of nanoseconds: a few in a hundred
		// draw zero, and such cycles are never booked.
		{"zero-length", noiseCase{burst: 50 * time.Nanosecond, load: 0.4, sample: 50 * time.Microsecond,
			client: writeRead(3, 64<<10, 100*time.Microsecond)}, []int64{2473, 2497, 2442, 2327}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var toClient, toNoise, zeros int
			for i, seed := range seeds {
				t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
					got, ref := c.c.check(t, seed)
					fewerPinned(t, got.events, ref.events, c.events[i])
					in, out := releaseEdges(ref.graph)
					toClient, toNoise = toClient+in, toNoise+out
					for k := 1; k < len(ref.steps); k++ {
						if ref.steps[k] == ref.steps[k-1] {
							zeros++
						}
					}
				})
			}
			// The scenario must exercise both directions of OST
			// contention, or the queued half of the state machine goes
			// unchecked.
			if toClient == 0 || toNoise == 0 {
				t.Errorf("weak scenario: noise->client %d, client->noise %d release edges", toClient, toNoise)
			}
			if c.name == "zero-length" && zeros < 100 {
				t.Errorf("weak scenario: %d zero-length steps, want 100 or more", zeros)
			}
		})
	}

	// A client that meets the noise exactly on one of its steps finds
	// the OST as the loop would have left it. Whether the step's delivery
	// fires before the client's depends on when each was scheduled, which
	// the booking must reproduce for a step of any position in it: the
	// first of a booking, a later one, its last. The client acquires the
	// OST directly or reads it and stops the noise there, its wake-up
	// scheduled long before the step, after the step before it, or at
	// the step's instant itself, and it is spawned before the noise or
	// after. The sampler reads the OST at that instant too, before
	// anything due there.
	t.Run("on-a-step", func(t *testing.T) {
		const seed = 3
		var got, ref int64
		for _, first := range []bool{false, true} {
			steps := noiseSteps(t, seed, first, 70)
			for _, j := range []int{1, 2, 3, 4, 9, 10, 63, 64, 65, 66} {
				prev, at := sim.Time(0), steps[j-1]
				if j > 1 {
					prev = steps[j-2]
				}
				for _, w := range []struct {
					name string
					wake func(p *sim.Proc)
				}{
					{"scheduled-before", func(p *sim.Proc) { p.Sleep(at - p.Now()) }},
					{"scheduled-after-previous-step", func(p *sim.Proc) {
						mid := prev + (at-prev)/2
						p.Sleep(mid - p.Now())
						p.Sleep(at - mid)
					}},
					{"scheduled-at-the-step", func(p *sim.Proc) {
						p.Sleep(at - p.Now())
						p.Sleep(0)
					}},
				} {
					for _, stop := range []bool{false, true} {
						c := noiseCase{burst: 2 * time.Millisecond, load: 0.12, sample: at, clientFirst: first,
							client: func(p *sim.Proc, fs *FS, _ *Client, out *noisyRun) {
								srv := fs.osts[0].srv
								w.wake(p)
								if stop {
									out.seen = append(out.seen, srv.InUse())
									fs.StopNoise()
									return
								}
								srv.Acquire(p, 1)
								out.done = append(out.done, p.Now())
								p.Sleep(time.Millisecond)
								srv.Release(1)
								p.Sleep(40 * time.Millisecond)
								fs.StopNoise()
							}}
						t.Run(fmt.Sprintf("clientFirst=%v/step%d/%s/stop=%v", first, j, w.name, stop), func(t *testing.T) {
							g, r := c.check(t, seed)
							got, ref = got+g.events, ref+r.events
						})
					}
				}
			}
		}
		fewerPinned(t, got, ref, 910)
	})

	// A request that ends a booking mid-cycle retimes the noise's next
	// step, whose delivery then comes later in its instant than the
	// per-step one. A request at that instant that the per-step delivery
	// would have gone before still finds the noise's step done first.
	t.Run("retimed-step", func(t *testing.T) {
		const seed = 5
		steps := noiseSteps(t, seed, false, 70)
		var got, ref int64
		for _, j := range []int{2, 3, 9, 10, 64, 66} {
			prev, at := steps[j-2], steps[j-1]
			c := noiseCase{burst: 2 * time.Millisecond, load: 0.12, sample: time.Millisecond,
				client: func(p *sim.Proc, fs *FS, _ *Client, out *noisyRun) {
					srv := fs.osts[0].srv
					p.Sleep(prev + (at-prev)/3 - p.Now())
					// The helper's wake-up is scheduled after the step
					// before, so it comes after the per-step delivery at
					// the step.
					fs.cl.Engine().Spawn("helper", func(h *sim.Proc) {
						h.Sleep(at - h.Now())
						srv.Acquire(h, 1)
						out.done = append(out.done, h.Now())
						srv.Release(1)
					})
					p.Sleep(prev + 2*(at-prev)/3 - p.Now())
					srv.Acquire(p, 1)
					srv.Release(1)
					p.Sleep(40 * time.Millisecond)
					fs.StopNoise()
				}}
			t.Run(fmt.Sprint("step", j), func(t *testing.T) {
				g, r := c.check(t, seed)
				got, ref = got+g.events, ref+r.events
			})
		}
		fewerPinned(t, got, ref, 79)
	})

	// StopNoise landing in a gap winds the noise down at the end of the
	// next burst, and landing in a burst at that burst's end, for a
	// booked process as for the loop: the run ends at the same instant.
	// A request exactly at that instant, scheduled when the noise was
	// stopped, finds it wound down or winding down as the loop does.
	t.Run("stop", func(t *testing.T) {
		var got, ref int64
		var gaps, bursts int
		for _, seed := range seeds {
			for k := 1; k <= 40; k++ {
				stopAt := time.Duration(k) * 7919 * time.Microsecond
				var windDown sim.Time // the loop's last step, once known
				c := noiseCase{burst: 2 * time.Millisecond, load: 0.3, sample: time.Millisecond,
					client: func(p *sim.Proc, fs *FS, c *Client, out *noisyRun) {
						if err := c.WriteFile(p, "/f", vfs.SizeOnly(128<<10)); err != nil {
							panic(err)
						}
						p.Sleep(stopAt - p.Now())
						srv := fs.osts[0].srv
						out.seen = append(out.seen, srv.InUse())
						fs.StopNoise()
						if windDown > p.Now() {
							p.Sleep(windDown - p.Now())
							srv.Acquire(p, 1)
							out.done = append(out.done, p.Now())
							srv.Release(1)
						}
					}}
				t.Run(fmt.Sprintf("seed%d/at%v", seed, stopAt), func(t *testing.T) {
					g, r := c.check(t, seed)
					got, ref = got+g.events, ref+r.events
					if r.seen[0] == 1 {
						bursts++
					} else {
						gaps++
					}
					windDown = r.steps[len(r.steps)-1]
					g, r = c.check(t, seed)
					got, ref = got+g.events, ref+r.events
				})
			}
		}
		if gaps == 0 || bursts == 0 {
			t.Errorf("weak scenario: StopNoise landed in %d gaps and %d bursts, want both", gaps, bursts)
		}
		fewerPinned(t, got, ref, 9309)
	})
}

// noiseSteps returns the instants of the first n steps of the goroutine
// loop's noise on an OST no client touches, under seed, with the client
// spawned first or not: gap ends and burst ends in turn.
func noiseSteps(t *testing.T, seed uint64, clientFirst bool, n int) []sim.Time {
	t.Helper()
	c := noiseCase{burst: 2 * time.Millisecond, load: 0.12, sample: time.Second, clientFirst: clientFirst,
		client: func(p *sim.Proc, fs *FS, _ *Client, _ *noisyRun) {
			p.Sleep(3 * time.Second)
			fs.StopNoise()
		}}
	steps := c.run(t, seed, refNoise).steps
	if len(steps) < n {
		t.Fatalf("noise took %d steps, want %d", len(steps), n)
	}
	return steps[:n]
}

// StartNoise runs every OST's noise without a goroutine of its own.
func TestNoiseStartsNoGoroutines(t *testing.T) {
	const osts = 16
	spawned := func(start func(*FS)) int {
		e := sim.NewEngine(1)
		cl := cluster.New(e, cluster.CoronaProfile(1+osts))
		var nodes []*cluster.Node
		for i := 0; i < osts; i++ {
			nodes = append(nodes, cl.Node(1+i))
		}
		fs := New(cl, cl.Node(0), nodes, DefaultParams())
		// Goroutines of earlier tests' processes may still be exiting;
		// they can only lower the count between the two reads.
		before := runtime.NumGoroutine()
		start(fs)
		n := runtime.NumGoroutine() - before
		fs.StopNoise() // each process ends after its first burst
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := spawned(startNoiseGoroutines); n < osts/2 {
		t.Fatalf("goroutine loop started %d goroutines for %d OSTs; the probe cannot see them", n, osts)
	}
	if n := spawned((*FS).StartNoise); n > 0 {
		t.Errorf("StartNoise started %d goroutines for %d OSTs, want none", n, osts)
	}
}
