package xfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/vfs"
)

func newTestFS(e *sim.Engine) *FS {
	cl := cluster.New(e, cluster.CoronaProfile(1))
	return New(cl.Node(0), DefaultParams())
}

func TestWriteReadRoundTrip(t *testing.T) {
	e := sim.NewEngine(1)
	f := newTestFS(e)
	payload := []byte("frame-bytes")
	e.Spawn("io", func(p *sim.Proc) {
		if err := f.WriteFile(p, "/frames/f0", vfs.BytesPayload(payload)); err != nil {
			t.Errorf("write: %v", err)
		}
		got, err := f.ReadFile(p, "/frames/f0")
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if !bytes.Equal(got.Bytes(), payload) {
			t.Errorf("read %q, want %q", got.Bytes(), payload)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadMissingFile(t *testing.T) {
	e := sim.NewEngine(1)
	f := newTestFS(e)
	e.Spawn("io", func(p *sim.Proc) {
		if _, err := f.ReadFile(p, "/nope"); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("read missing: %v, want ErrNotExist", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteChargesJournalAndData(t *testing.T) {
	e := sim.NewEngine(1)
	f := newTestFS(e)
	e.Spawn("io", func(p *sim.Proc) {
		_ = f.WriteFile(p, "/a", vfs.SizeOnly(1<<20))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ssd := f.node.SSD
	if ssd.BytesWritten != 4096+1<<20 { // journal + data
		t.Fatalf("bytes written %d", ssd.BytesWritten)
	}
}

func TestWriteTimeGrowsWithSize(t *testing.T) {
	e := sim.NewEngine(1)
	f := newTestFS(e)
	var small, large sim.Time
	e.Spawn("io", func(p *sim.Proc) {
		t0 := p.Now()
		_ = f.WriteFile(p, "/s", vfs.SizeOnly(1<<10))
		small = p.Now() - t0
		t1 := p.Now()
		_ = f.WriteFile(p, "/l", vfs.SizeOnly(1<<24))
		large = p.Now() - t1
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Fatalf("16 MiB write (%v) should exceed 1 KiB write (%v)", large, small)
	}
}

// Property: any sequence of writes is readable back byte-identical.
func TestRoundTripProperty(t *testing.T) {
	fn := func(blobs [][]byte) bool {
		e := sim.NewEngine(1)
		f := newTestFS(e)
		ok := true
		e.Spawn("io", func(p *sim.Proc) {
			for i, b := range blobs {
				path := vfs.Clean(string(rune('a'+i%26)) + "/f")
				if err := f.WriteFile(p, path, vfs.BytesPayload(b)); err != nil {
					ok = false
					return
				}
				got, err := f.ReadFile(p, path)
				if err != nil || !bytes.Equal(got.Bytes(), b) {
					ok = false
					return
				}
			}
		})
		return e.Run() == nil && ok
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
