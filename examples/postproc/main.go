// Postproc contrasts the two analysis strategies the paper's §II-B
// motivates, on the simulated cluster:
//
//   - post-processing: the producer appends every frame to a trajectory
//     file on Lustre; analysis starts only after the simulation finishes,
//     reading the whole trajectory back.
//   - in situ: frames stream through DYAD to a concurrently running
//     consumer that analyzes them as they are produced.
//
// The comparison prints time-to-first-insight (when the first frame's
// analysis completes) and time-to-last-insight for both strategies —
// the quantities that make in situ analytics compelling at scale.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/dyad"
	"repro/internal/frame"
	"repro/internal/lustre"
	"repro/internal/models"
	"repro/internal/sim"
	"repro/internal/trajectory"
	"repro/internal/vfs"
)

const frames = 32

func main() {
	model, err := models.ByName("ApoA1")
	if err != nil {
		log.Fatal(err)
	}
	freq := model.DefaultFrequency()
	payload := frame.NewSynthetic(model.Name, 0, model.Atoms, 7)

	fmt.Printf("workload: %s, %d frames, one every %v (%d bytes/frame)\n\n",
		model.Name, frames, freq, model.FrameBytes())

	postFirst, postLast := runPostProcessing(model, payload)
	situFirst, situLast := runInSitu(model, payload)

	fmt.Printf("%-18s %-22s %-22s\n", "strategy", "first insight", "last insight")
	fmt.Printf("%-18s %-22v %-22v\n", "post-processing", postFirst, postLast)
	fmt.Printf("%-18s %-22v %-22v\n", "in situ (DYAD)", situFirst, situLast)
	fmt.Printf("\nin situ delivers the first insight %.1fx sooner and finishes %.1fx sooner;\n",
		postFirst.Seconds()/situFirst.Seconds(), postLast.Seconds()/situLast.Seconds())
	fmt.Println("with in situ, analysis is done moments after the simulation's last frame (§II-B).")
}

// runPostProcessing: simulate, write a Lustre trajectory, then analyze.
func runPostProcessing(model models.Model, payload *frame.Frame) (first, last time.Duration) {
	e := sim.NewEngine(1)
	// 2 compute nodes + 1 MDS + 2 OSTs.
	cl := cluster.New(e, cluster.CoronaProfile(5))
	params := lustre.DefaultParams()
	params.BackgroundLoad = 0
	lfs := lustre.New(cl, cl.Node(2), []*cluster.Node{cl.Node(3), cl.Node(4)}, params)

	simDone := &sim.Latch{}
	e.Spawn("producer", func(p *sim.Proc) {
		w, err := trajectory.Create(p, lfs.Client(cl.Node(0)), "/traj", model.Name, model.Atoms)
		if err != nil {
			panic(err)
		}
		for f := 0; f < frames; f++ {
			p.Sleep(model.DefaultFrequency()) // MD compute
			payload.Step = int64(f)
			if err := w.AppendFrame(p, payload); err != nil {
				panic(err)
			}
		}
		if err := w.Close(p); err != nil {
			panic(err)
		}
		simDone.Fire()
	})
	e.Spawn("analyst", func(p *sim.Proc) {
		simDone.Wait(p) // post-processing starts after the run
		r, err := trajectory.Open(p, lfs.Client(cl.Node(1)), "/traj")
		if err != nil {
			panic(err)
		}
		for i := 0; i < r.Len(); i++ {
			if _, err := r.Frame(p, i); err != nil {
				panic(err)
			}
			p.Sleep(analysisTime(model))
			if i == 0 {
				first = p.Now()
			}
		}
		last = p.Now()
		if err := r.Close(p); err != nil {
			panic(err)
		}
	})
	if err := e.Run(); err != nil {
		log.Fatal(err)
	}
	return first, last
}

// runInSitu: stream frames through DYAD to a concurrent analyst.
func runInSitu(model models.Model, payload *frame.Frame) (first, last time.Duration) {
	e := sim.NewEngine(1)
	cl := cluster.New(e, cluster.CoronaProfile(2))
	sys := dyad.New(cl, cl.Node(0), dyad.DefaultParams())
	enc := vfs.BytesPayload(payload.Encode())

	e.Spawn("producer", func(p *sim.Proc) {
		c := sys.NewClient(cl.Node(0))
		for f := 0; f < frames; f++ {
			p.Sleep(model.DefaultFrequency())
			c.Produce(p, fmt.Sprintf("/flow/f%d", f), enc)
		}
	})
	e.Spawn("analyst", func(p *sim.Proc) {
		c := sys.NewClient(cl.Node(1))
		for f := 0; f < frames; f++ {
			c.Consume(p, fmt.Sprintf("/flow/f%d", f))
			p.Sleep(analysisTime(model))
			if f == 0 {
				first = p.Now()
			}
		}
		last = p.Now()
	})
	if err := e.Run(); err != nil {
		log.Fatal(err)
	}
	return first, last
}

// analysisTime models per-frame analytics compute (half a frame period, so
// the analyst keeps up in the streaming case).
func analysisTime(model models.Model) time.Duration {
	return model.DefaultFrequency() / 2
}
