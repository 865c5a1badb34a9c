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
// replaced, kept as the reference the goroutine-free version must match
// event for event.
func startNoiseGoroutines(f *FS) {
	if f.params.BackgroundLoad <= 0 {
		return
	}
	for i, o := range f.osts {
		o := o
		f.cl.Engine().Spawn(fmt.Sprintf("lustre-noise-%d", i), func(p *sim.Proc) {
			p.CritBackground()
			p.CritBegin("lustre", "background_noise", trace.ClassDetail)
			burst := 2 * time.Millisecond
			gap := time.Duration(float64(burst) * (1 - f.params.BackgroundLoad) / f.params.BackgroundLoad)
			for n := 0; n < 1_000_000; n++ {
				p.Sleep(p.Rand().Exp(gap))
				o.srv.Use(p, p.Rand().Exp(burst))
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
	done   []sim.Time // the client's completion time of each write+read
	graph  *critpath.Graph
}

// runNoisy runs one client writing and reading back files on a single OST
// that start's noise contends for, with critical-path recording on.
func runNoisy(t *testing.T, start func(*FS)) noisyRun {
	t.Helper()
	e := sim.NewEngine(42)
	cp := critpath.NewRecorder()
	e.SetCritRecorder(cp)
	cl := cluster.New(e, cluster.CoronaProfile(3))
	params := DefaultParams()
	params.BackgroundLoad = 0.4
	fs := New(cl, cl.Node(1), []*cluster.Node{cl.Node(2)}, params)
	start(fs)
	c := fs.Client(cl.Node(0))
	var out noisyRun
	e.Spawn("client", func(p *sim.Proc) {
		p.CritBegin("workflow", "io", trace.ClassMovement)
		for i := 0; i < 40; i++ {
			path := fmt.Sprintf("/f%d", i)
			if err := c.WriteFile(p, path, vfs.SizeOnly(512<<10)); err != nil {
				t.Error(err)
			}
			if _, err := c.ReadFile(p, path); err != nil {
				t.Error(err)
			}
			out.done = append(out.done, p.Now())
			p.Sleep(p.Rand().Exp(3 * time.Millisecond))
		}
		p.CritEnd()
		fs.StopNoise()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	out.events = e.Events()
	out.busy = fs.osts[0].srv.BusyUnitNanos()
	out.graph = cp.Finish(e.Now())
	return out
}

// The goroutine-free noise is the goroutine loop's timeline one for one:
// the same events in the same order, the same OST occupancy, the same
// client completions, and the same critical-path graph — every release
// edge attributed to the same process at the same instant.
func TestNoiseMatchesGoroutineLoop(t *testing.T) {
	ref := runNoisy(t, startNoiseGoroutines)
	got := runNoisy(t, (*FS).StartNoise)

	// The scenario must exercise both directions of OST contention, or the
	// queued half of the state machine goes unchecked.
	const noise, client = 0, 1
	var noiseToClient, clientToNoise int
	for _, ed := range ref.graph.Edges {
		switch {
		case ed.From == noise && ed.To == client:
			noiseToClient++
		case ed.From == client && ed.To == noise:
			clientToNoise++
		}
	}
	if noiseToClient == 0 || clientToNoise == 0 {
		t.Fatalf("weak scenario: noise->client %d, client->noise %d release edges", noiseToClient, clientToNoise)
	}

	if got.events != ref.events {
		t.Errorf("events: %d, goroutine loop %d", got.events, ref.events)
	}
	if got.busy != ref.busy {
		t.Errorf("OST busy integral: %d, goroutine loop %d", got.busy, ref.busy)
	}
	if !reflect.DeepEqual(got.done, ref.done) {
		t.Errorf("client completions differ:\n got %v\nwant %v", got.done, ref.done)
	}
	if !reflect.DeepEqual(got.graph.Edges, ref.graph.Edges) {
		t.Errorf("critical-path edges differ:\n got %v\nwant %v", got.graph.Edges, ref.graph.Edges)
	}
	if !reflect.DeepEqual(got.graph.Procs, ref.graph.Procs) {
		t.Errorf("critical-path process timelines differ:\n got %+v\nwant %+v", got.graph.Procs, ref.graph.Procs)
	}
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
