package trajectory

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/xfs"
)

func newFS(e *sim.Engine) *xfs.FS {
	cl := cluster.New(e, cluster.CoronaProfile(1))
	return xfs.New(cl.Node(0), xfs.DefaultParams())
}

func TestWriteReadRoundTrip(t *testing.T) {
	e := sim.NewEngine(1)
	fs := newFS(e)
	const frames = 5
	e.Spawn("io", func(p *sim.Proc) {
		w, err := Create(p, fs, "/traj.mdtr", "LJ", 100)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		var want []*frame.Frame
		for i := 0; i < frames; i++ {
			f := frame.NewSynthetic("LJ", int64(i), 100, uint64(i+1))
			want = append(want, f)
			if err := w.AppendFrame(p, f); err != nil {
				t.Errorf("append %d: %v", i, err)
			}
		}
		if err := w.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}

		r, err := Open(p, fs, "/traj.mdtr")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if r.Len() != frames {
			t.Errorf("reader: len=%d, want %d", r.Len(), frames)
		}
		// Random access, out of order.
		for _, i := range []int{3, 0, 4, 2, 1} {
			got, err := r.Frame(p, i)
			if err != nil {
				t.Errorf("frame %d: %v", i, err)
				continue
			}
			if !got.Equal(want[i]) {
				t.Errorf("frame %d mismatch", i)
			}
		}
		if _, err := r.Frame(p, frames); err == nil {
			t.Error("out-of-range frame accepted")
		}
		_ = r.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMismatchedFrameRejected(t *testing.T) {
	e := sim.NewEngine(1)
	fs := newFS(e)
	e.Spawn("io", func(p *sim.Proc) {
		w, _ := Create(p, fs, "/t", "A", 10)
		if err := w.AppendFrame(p, frame.NewSynthetic("B", 0, 10, 1)); err == nil {
			t.Error("wrong model accepted")
		}
		if err := w.AppendFrame(p, frame.NewSynthetic("A", 0, 11, 1)); err == nil {
			t.Error("wrong atom count accepted")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	e := sim.NewEngine(1)
	fs := newFS(e)
	e.Spawn("io", func(p *sim.Proc) {
		if _, err := Open(p, fs, "/missing"); err == nil {
			t.Error("open of missing file accepted")
		}
		_ = fs.WriteFile(p, "/junk", vfs.BytesPayload([]byte("not a trajectory at all")))
		if _, err := Open(p, fs, "/junk"); err == nil {
			t.Error("garbage accepted")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexScanCheaperThanFullRead(t *testing.T) {
	// Opening (index scan over length prefixes) must cost far less device
	// time than reading every frame payload.
	e := sim.NewEngine(1)
	fs := newFS(e)
	var openTime, readAllTime time.Duration
	e.Spawn("io", func(p *sim.Proc) {
		w, _ := Create(p, fs, "/t", "LJ", 100_000)
		for i := 0; i < 10; i++ {
			_ = w.AppendFrame(p, frame.NewSynthetic("LJ", int64(i), 100_000, 1))
		}
		_ = w.Close(p)
		t0 := p.Now()
		r, err := Open(p, fs, "/t")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		openTime = p.Now() - t0
		t1 := p.Now()
		for i := 0; i < r.Len(); i++ {
			if _, err := r.Frame(p, i); err != nil {
				t.Errorf("frame %d: %v", i, err)
			}
		}
		readAllTime = p.Now() - t1
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if openTime*5 > readAllTime {
		t.Fatalf("index scan %v not ≪ full read %v", openTime, readAllTime)
	}
}
