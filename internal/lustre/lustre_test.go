package lustre

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// testRig builds a cluster with `compute` compute nodes, 1 MDS node, and
// `osts` OST nodes, and a Lustre FS without background noise.
func testRig(e *sim.Engine, compute, osts int) (*cluster.Cluster, *FS) {
	cl := cluster.New(e, cluster.CoronaProfile(compute+1+osts))
	params := DefaultParams()
	params.BackgroundLoad = 0
	var ostNodes []*cluster.Node
	for i := 0; i < osts; i++ {
		ostNodes = append(ostNodes, cl.Node(compute+1+i))
	}
	return cl, New(cl, cl.Node(compute), ostNodes, params)
}

func TestWriteReadRoundTripAcrossNodes(t *testing.T) {
	e := sim.NewEngine(1)
	cl, fs := testRig(e, 2, 4)
	writer := fs.Client(cl.Node(0))
	reader := fs.Client(cl.Node(1))
	payload := vfs.BytesPayload(bytes.Repeat([]byte("x"), 3<<20)) // 3 MiB: multiple stripes
	e.Spawn("w", func(p *sim.Proc) {
		if err := writer.WriteFile(p, "/frames/f0", payload); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	e.Spawn("r", func(p *sim.Proc) {
		p.Sleep(time.Second) // well after the write
		got, err := reader.ReadFile(p, "/frames/f0")
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if !bytes.Equal(got.Bytes(), payload.Bytes()) {
			t.Error("cross-node read mismatch")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMissingFileErrors(t *testing.T) {
	e := sim.NewEngine(1)
	cl, fs := testRig(e, 1, 1)
	c := fs.Client(cl.Node(0))
	e.Spawn("r", func(p *sim.Proc) {
		if _, err := c.ReadFile(p, "/none"); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("read: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// A file moves in stripe-size chunks, one OST RPC each, and an empty file
// still costs one (empty) chunk each way.
func TestChunking(t *testing.T) {
	cases := []struct {
		n    int64
		want int64
	}{
		{0, 1}, {1, 1}, {1 << 20, 1}, {1<<20 + 1, 2}, {3 << 20, 3},
	}
	for _, c := range cases {
		e := sim.NewEngine(1)
		cl, fs := testRig(e, 1, 2)
		cli := fs.Client(cl.Node(0))
		var wrote, read int64
		e.Spawn("io", func(p *sim.Proc) {
			if err := cli.WriteFile(p, "/f", vfs.SizeOnly(c.n)); err != nil {
				t.Errorf("write %d: %v", c.n, err)
				return
			}
			wrote = fs.OSTOps
			if _, err := cli.ReadFile(p, "/f"); err != nil {
				t.Errorf("read %d: %v", c.n, err)
			}
			read = fs.OSTOps - wrote
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if wrote != c.want || read != c.want {
			t.Errorf("%d bytes: %d write and %d read chunks, want %d each", c.n, wrote, read, c.want)
		}
	}
}

func TestWriteSlowerThanNodeLocal(t *testing.T) {
	// A 1 MiB Lustre write must cost far more than the raw wire time:
	// MDS RPC + OST service + OST device.
	e := sim.NewEngine(1)
	cl, fs := testRig(e, 1, 1)
	c := fs.Client(cl.Node(0))
	var took time.Duration
	e.Spawn("w", func(p *sim.Proc) {
		t0 := p.Now()
		_ = c.WriteFile(p, "/f", vfs.SizeOnly(1<<20))
		took = p.Now() - t0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if took < time.Millisecond {
		t.Fatalf("1 MiB Lustre write took only %v", took)
	}
	if fs.MDSOps != 2 || fs.OSTOps != 1 { // open + close, one data RPC
		t.Fatalf("mds=%d ost=%d ops", fs.MDSOps, fs.OSTOps)
	}
}

func TestMDSSerializesMetadataStorm(t *testing.T) {
	e := sim.NewEngine(1)
	cl, fs := testRig(e, 1, 2)
	c := fs.Client(cl.Node(0))
	n := 32
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/f%d", i)
		e.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			_ = c.WriteFile(p, path, vfs.BytesPayload([]byte("tiny")))
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	min := time.Duration(n) * fs.params.MDSService
	if e.Now() < min {
		t.Fatalf("metadata storm finished in %v, want >= %v", e.Now(), min)
	}
}

func TestStripingSpreadsFilesOverOSTs(t *testing.T) {
	e := sim.NewEngine(1)
	cl, fs := testRig(e, 1, 4)
	c := fs.Client(cl.Node(0))
	e.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			_ = c.WriteFile(p, fmt.Sprintf("/f%d", i), vfs.SizeOnly(1<<10))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, first := range fs.layout {
		seen[first] = true
	}
	if len(seen) != 4 {
		t.Fatalf("round-robin used %d of 4 OSTs", len(seen))
	}
}

func TestNoiseAddsInterferenceAndStops(t *testing.T) {
	e := sim.NewEngine(7)
	cl := cluster.New(e, cluster.CoronaProfile(3))
	params := DefaultParams()
	params.BackgroundLoad = 0.5
	fs := New(cl, cl.Node(1), []*cluster.Node{cl.Node(2)}, params)
	fs.StartNoise()
	c := fs.Client(cl.Node(0))
	var took time.Duration
	e.Spawn("w", func(p *sim.Proc) {
		t0 := p.Now()
		for i := 0; i < 20; i++ {
			_ = c.WriteFile(p, fmt.Sprintf("/f%d", i), vfs.SizeOnly(1<<20))
		}
		took = p.Now() - t0
		fs.StopNoise()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	// Same workload without noise must be faster.
	e2 := sim.NewEngine(7)
	cl2 := cluster.New(e2, cluster.CoronaProfile(3))
	params.BackgroundLoad = 0
	fs2 := New(cl2, cl2.Node(1), []*cluster.Node{cl2.Node(2)}, params)
	c2 := fs2.Client(cl2.Node(0))
	var quiet time.Duration
	e2.Spawn("w", func(p *sim.Proc) {
		t0 := p.Now()
		for i := 0; i < 20; i++ {
			_ = c2.WriteFile(p, fmt.Sprintf("/f%d", i), vfs.SizeOnly(1<<20))
		}
		quiet = p.Now() - t0
	})
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if took <= quiet {
		t.Fatalf("noisy run (%v) not slower than quiet run (%v)", took, quiet)
	}
}

// Property: reassembled read equals written payload for any size (striping
// never loses or reorders bytes).
func TestStripeReassemblyProperty(t *testing.T) {
	f := func(sizeRaw uint32, ostsRaw, stripeRaw uint8) bool {
		size := int(sizeRaw % (8 << 20))
		osts := int(ostsRaw)%4 + 1
		stripeCount := int(stripeRaw)%osts + 1
		e := sim.NewEngine(1)
		cl := cluster.New(e, cluster.CoronaProfile(1+1+osts))
		params := DefaultParams()
		params.BackgroundLoad = 0
		params.StripeCount = stripeCount
		var ostNodes []*cluster.Node
		for i := 0; i < osts; i++ {
			ostNodes = append(ostNodes, cl.Node(2+i))
		}
		fs := New(cl, cl.Node(1), ostNodes, params)
		c := fs.Client(cl.Node(0))
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i)
		}
		ok := true
		e.Spawn("rw", func(p *sim.Proc) {
			if err := c.WriteFile(p, "/f", vfs.BytesPayload(payload)); err != nil {
				ok = false
				return
			}
			got, err := c.ReadFile(p, "/f")
			ok = err == nil && bytes.Equal(got.Bytes(), payload)
		})
		return e.Run() == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
