package lustre

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/critpath"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// refWriteFile is the blocking sequence that the chained WriteFile
// replaced, kept as the reference the chain must match event for event:
// MDS create, then each stripe chunk's OST RPC, then MDS close, each RPC
// its own Inline chain with a goroutine resume after it.
func refWriteFile(c *Client, p *sim.Proc, path string, pl vfs.Payload) error {
	path = vfs.Clean(path)
	f := c.fs
	wStart := p.Now()
	p.CritBegin("lustre", "write", trace.ClassDetail)
	defer p.CritEnd()
	f.mdsRPC(p, c.node) // open/create with layout allocation
	first, ok := f.layout[path]
	if !ok {
		first = f.nextOST
		f.nextOST = (f.nextOST + 1) % len(f.osts)
		f.layout[path] = first
	}
	writeChunks(f, p, c.node, first, pl.Size())
	f.mdsRPC(p, c.node) // close: size/attr update at the MDS
	f.tree.Put(path, pl)
	p.CritProduce(path, pl.Size())
	p.CritHop(path, "write", wStart, pl.Size())
	return nil
}

// refReadFile is the blocking ReadFile: MDS lookup, then each chunk.
func refReadFile(c *Client, p *sim.Proc, path string) (vfs.Payload, error) {
	path = vfs.Clean(path)
	f := c.fs
	rStart := p.Now()
	p.CritBegin("lustre", "read", trace.ClassDetail)
	defer p.CritEnd()
	f.mdsRPC(p, c.node)
	pl, ok := f.tree.Get(path)
	if !ok {
		return vfs.Payload{}, vfs.PathError("read", path, vfs.ErrNotExist)
	}
	readChunks(f, p, c.node, f.layout[path], pl.Size())
	p.CritDepend(path, "read")
	p.CritHop(path, "read", rStart, pl.Size())
	return pl, nil
}

// writeChunks pushes n bytes to the file's OSTs in stripe-size chunks, the
// last one short and one empty chunk for an empty file; the first carries
// the per-file object setup.
func writeChunks(f *FS, p *sim.Proc, from *cluster.Node, first int, n int64) {
	for k := 0; k == 0 || n > 0; k++ {
		c := min(n, f.params.StripeSize)
		n -= c
		o := f.ostFor(first, k%f.params.StripeCount)
		service := f.params.OSTService + bwTime(c, f.params.OSTWriteBandwidth)
		if k == 0 {
			service += f.params.PerFileWriteOverhead
		}
		f.rpc(p, from, o, c, 64, service)
	}
}

// readChunks pulls the chunks writeChunks pushed.
func readChunks(f *FS, p *sim.Proc, from *cluster.Node, first int, n int64) {
	for k := 0; k == 0 || n > 0; k++ {
		c := min(n, f.params.StripeSize)
		n -= c
		o := f.ostFor(first, k%f.params.StripeCount)
		service := f.params.OSTService + bwTime(c, f.params.OSTReadBandwidth)
		if k == 0 {
			service += f.params.PerFileReadOverhead
		}
		f.rpc(p, from, o, 256, c, service)
	}
}

// fileImpl is one implementation of whole-file reads and writes.
type fileImpl struct {
	write func(c *Client, p *sim.Proc, path string, pl vfs.Payload) error
	read  func(c *Client, p *sim.Proc, path string) (vfs.Payload, error)
}

var (
	chainFile = fileImpl{(*Client).WriteFile, (*Client).ReadFile}
	refFile   = fileImpl{refWriteFile, refReadFile}
)

// fileDone is one completed file operation.
type fileDone struct {
	Proc, Op, Path string
	At             sim.Time
	Size           int64
	Err            string
}

// fileRun is everything a file-operation implementation can change about
// a run.
type fileRun struct {
	events, handoffs int64
	ops              []fileDone
	spans            []trace.Span
	graph            *critpath.Graph
	path             *critpath.CritPath
	mdsOps, ostOps   int64
	ostBytes         []int64
	recovery         faults.Metrics
}

// fileScenario is a workload on a fresh rig: three client nodes, the MDS,
// and osts OSTs.
type fileScenario struct {
	name   string
	osts   int
	params func(*Params)
	build  func(e *sim.Engine, fs *FS, cs []*Client, ops *fileLog)
}

// fileLog issues a scenario's operations through one implementation and
// logs their completions.
type fileLog struct {
	impl fileImpl
	done []fileDone
}

func (o *fileLog) write(c *Client, p *sim.Proc, path string, pl vfs.Payload) {
	err := o.impl.write(c, p, path, pl)
	o.log(p, "write", path, pl.Size(), err)
}

func (o *fileLog) read(c *Client, p *sim.Proc, path string) {
	pl, err := o.impl.read(c, p, path)
	o.log(p, "read", path, pl.Size(), err)
}

func (o *fileLog) log(p *sim.Proc, op, path string, size int64, err error) {
	d := fileDone{Proc: p.Name(), Op: op, Path: path, At: p.Now(), Size: size}
	if err != nil {
		d.Err = err.Error()
	}
	o.done = append(o.done, d)
}

// client spawns a process that runs body inside a movement region.
func client(e *sim.Engine, name string, body func(p *sim.Proc)) {
	e.Spawn(name, func(p *sim.Proc) {
		p.CritBegin("workflow", name, trace.ClassMovement)
		body(p)
		p.CritEnd()
	})
}

var fileScenarios = []fileScenario{
	{"striped under noise", 4, func(pr *Params) {
		pr.StripeSize, pr.StripeCount, pr.BackgroundLoad = 256<<10, 3, 0.3
	}, func(e *sim.Engine, fs *FS, cs []*Client, ops *fileLog) {
		fs.StartNoise()
		sizes := []int64{700 << 10, 1<<20 + 1, 256 << 10, 3 << 20}
		left := len(cs)
		for i, c := range cs {
			client(e, fmt.Sprintf("c%d", i), func(p *sim.Proc) {
				for k, n := range sizes {
					ops.write(c, p, fmt.Sprintf("/c%d/f%d", i, k), vfs.SizeOnly(n))
					p.Sleep(p.Rand().Exp(time.Millisecond))
				}
				// Read a neighbour's files back while it may still write.
				for k := range sizes {
					ops.read(c, p, fmt.Sprintf("/c%d/f%d", (i+1)%len(cs), k))
				}
				if left--; left == 0 {
					fs.StopNoise()
				}
			})
		}
	}},
	{"empty and missing files", 2, func(pr *Params) {
		pr.StripeCount = 2
	}, func(e *sim.Engine, fs *FS, cs []*Client, ops *fileLog) {
		client(e, "w", func(p *sim.Proc) {
			ops.write(cs[0], p, "/empty", vfs.SizeOnly(0))
			ops.read(cs[0], p, "/empty")
			ops.write(cs[0], p, "/empty", vfs.BytesPayload(bytes.Repeat([]byte("e"), 3<<20)))
		})
		client(e, "r", func(p *sim.Proc) {
			ops.read(cs[1], p, "/missing")
			ops.read(cs[1], p, "/empty") // not there yet: the lookup wins
			p.Sleep(30 * time.Millisecond)
			ops.read(cs[1], p, "/empty")
		})
	}},
	{"layout race", 2, func(pr *Params) {}, func(e *sim.Engine, fs *FS, cs []*Client, ops *fileLog) {
		// c0's create goes out first but stalls on its link; c1's create
		// is answered first and so takes the first OST: a layout is
		// assigned at the MDS reply, not when the call is made.
		cs[0].Node().FailLinkUntil(time.Millisecond)
		client(e, "c0", func(p *sim.Proc) {
			ops.write(cs[0], p, "/slow", vfs.SizeOnly(1<<20))
		})
		client(e, "c1", func(p *sim.Proc) {
			p.Sleep(200 * time.Microsecond)
			ops.write(cs[1], p, "/fast", vfs.SizeOnly(3<<20))
		})
	}},
	{"OST outage mid-file", 2, func(pr *Params) {
		pr.StripeSize, pr.StripeCount = 256<<10, 2
	}, func(e *sim.Engine, fs *FS, cs []*Client, ops *fileLog) {
		// A short outage of OST 1 lands between a write's chunks: the
		// client resends after a timeout and backoff. A later outage of
		// OST 0 outlasts the retry budget: the client fails over.
		e.After(5*time.Millisecond, func() { fs.FailOST(1, 300*time.Millisecond) })
		e.After(2*time.Second, func() { fs.FailOST(0, time.Hour) })
		client(e, "w", func(p *sim.Proc) {
			ops.write(cs[0], p, "/a", vfs.SizeOnly(2<<20))
			p.Sleep(2 * time.Second)
			ops.write(cs[0], p, "/b", vfs.SizeOnly(2<<20))
			ops.read(cs[0], p, "/a")
		})
		client(e, "r", func(p *sim.Proc) {
			p.Sleep(1500 * time.Millisecond)
			ops.read(cs[1], p, "/a")
		})
	}},
	{"MDS outage", 2, func(pr *Params) {
		pr.StripeSize, pr.StripeCount = 256<<10, 2
	}, func(e *sim.Engine, fs *FS, cs []*Client, ops *fileLog) {
		// The MDS goes down while a write's chunks are in flight, so its
		// close and another client's lookup wait the outage out.
		e.After(6*time.Millisecond, func() { fs.FailMDS(250 * time.Millisecond) })
		client(e, "w", func(p *sim.Proc) {
			ops.write(cs[0], p, "/m", vfs.SizeOnly(2<<20))
			ops.read(cs[0], p, "/m")
		})
		client(e, "r", func(p *sim.Proc) {
			p.Sleep(8 * time.Millisecond)
			ops.read(cs[1], p, "/m")
		})
	}},
}

// runFiles runs sc through impl with spans and the critical path recorded.
func runFiles(sc fileScenario, impl fileImpl) (fileRun, error) {
	e := sim.NewEngine(5)
	rec := trace.NewRecorder()
	e.SetRecorder(rec)
	cp := critpath.NewRecorder()
	e.SetCritRecorder(cp)
	const clients = 3
	cl := cluster.New(e, cluster.CoronaProfile(clients+1+sc.osts))
	params := DefaultParams()
	params.BackgroundLoad = 0
	sc.params(&params)
	var ostNodes []*cluster.Node
	for i := 0; i < sc.osts; i++ {
		ostNodes = append(ostNodes, cl.Node(clients+1+i))
	}
	fs := New(cl, cl.Node(clients), ostNodes, params)
	var cs []*Client
	for i := 0; i < clients; i++ {
		cs = append(cs, fs.Client(cl.Node(i)))
	}
	ops := &fileLog{impl: impl}
	sc.build(e, fs, cs, ops)
	if err := e.Run(); err != nil {
		return fileRun{}, err
	}
	out := fileRun{
		events: e.Events(), handoffs: e.Handoffs(), ops: ops.done, spans: rec.Spans(),
		graph: cp.Finish(e.Now()), mdsOps: fs.MDSOps, ostOps: fs.OSTOps, recovery: fs.Recovery,
	}
	out.path = critpath.Extract(out.graph)
	for _, o := range fs.osts {
		out.ostBytes = append(out.ostBytes, o.bytes)
	}
	return out, nil
}

// The chained WriteFile and ReadFile are the blocking sequence's timeline
// one for one — events, completions, spans, critical path, RPC counts and
// per-OST bytes, recovery — on healthy and faulted runs alike, with no more
// goroutine handoffs (fewer wherever processes overlap).
func TestFileOpChainMatchesBlockingSequence(t *testing.T) {
	for _, sc := range fileScenarios {
		t.Run(sc.name, func(t *testing.T) {
			ref, err := runFiles(sc, refFile)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runFiles(sc, chainFile)
			if err != nil {
				t.Fatal(err)
			}
			switch sc.name {
			case "OST outage mid-file":
				if ref.recovery.Retries == 0 || ref.recovery.Failovers != 1 {
					t.Fatalf("weak scenario: recovery %+v, want resends and one failover", ref.recovery)
				}
			case "MDS outage":
				if ref.recovery.Timeouts < 2 {
					t.Fatalf("weak scenario: recovery %+v, want two waits on the MDS", ref.recovery)
				}
			}
			if got.events != ref.events {
				t.Errorf("events: %d, blocking sequence %d", got.events, ref.events)
			}
			if !reflect.DeepEqual(got.ops, ref.ops) {
				t.Errorf("completions differ:\n got %v\nwant %v", got.ops, ref.ops)
			}
			if !reflect.DeepEqual(got.spans, ref.spans) {
				t.Errorf("spans differ:\n got %v\nwant %v", got.spans, ref.spans)
			}
			if !reflect.DeepEqual(got.graph, ref.graph) {
				t.Errorf("critical-path graph differs:\n got %+v\nwant %+v", got.graph, ref.graph)
			}
			if !reflect.DeepEqual(got.path, ref.path) {
				t.Errorf("critical path differs:\n got %+v\nwant %+v", got.path, ref.path)
			}
			if got.graph.Unclosed != 0 {
				t.Errorf("%d processes ended with a region open", got.graph.Unclosed)
			}
			if got.mdsOps != ref.mdsOps || got.ostOps != ref.ostOps || !reflect.DeepEqual(got.ostBytes, ref.ostBytes) {
				t.Errorf("RPCs: %d MDS, %d OST, bytes %v; blocking sequence %d, %d, %v",
					got.mdsOps, got.ostOps, got.ostBytes, ref.mdsOps, ref.ostOps, ref.ostBytes)
			}
			if got.recovery != ref.recovery {
				t.Errorf("recovery: %+v, blocking sequence %+v", got.recovery, ref.recovery)
			}
			// Where processes overlap, each RPC's resume was a handoff.
			if got.handoffs > ref.handoffs || (sc.name == "striped under noise" && got.handoffs >= ref.handoffs) {
				t.Errorf("handoffs: %d, blocking sequence %d; want fewer", got.handoffs, ref.handoffs)
			}
		})
	}
}

// File-op states come from one free list shared by every engine in the
// process, as under a parallel experiment runner: engines running at once
// on their own goroutines must each get the serial run's timeline (run
// with -race to check the list's locking).
func TestFileOpFreeListSharedByConcurrentEngines(t *testing.T) {
	sc := fileScenarios[0]
	want, err := runFiles(sc, chainFile)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]fileRun, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = runFiles(sc, chainFile)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if errs[i] != nil {
			t.Errorf("concurrent engine %d: %v", i, errs[i])
		} else if g.events != want.events || !reflect.DeepEqual(g.ops, want.ops) || !reflect.DeepEqual(g.spans, want.spans) {
			t.Errorf("concurrent engine %d diverged from the serial run", i)
		}
	}
}
