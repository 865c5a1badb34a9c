package xfs

import (
	"errors"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// XFS has no redundancy below it: a failed device surfaces every operation
// as a wrapped faults.ErrDeviceFailed, and service resumes after repair.
func TestDeviceFailureSurfacesSentinel(t *testing.T) {
	e := sim.NewEngine(1)
	f := newTestFS(e)
	e.Spawn("io", func(p *sim.Proc) {
		if err := f.WriteFile(p, "/f0", vfs.SizeOnly(4096)); err != nil {
			t.Errorf("healthy write: %v", err)
		}
		f.node.SSD.Fail()
		if err := f.WriteFile(p, "/f1", vfs.SizeOnly(4096)); !errors.Is(err, faults.ErrDeviceFailed) {
			t.Errorf("write on failed device: err = %v, want ErrDeviceFailed", err)
		}
		if _, err := f.ReadFile(p, "/f0"); !errors.Is(err, faults.ErrDeviceFailed) {
			t.Errorf("read on failed device: err = %v, want ErrDeviceFailed", err)
		}
		f.node.SSD.Repair()
		if err := f.WriteFile(p, "/f2", vfs.SizeOnly(4096)); err != nil {
			t.Errorf("post-repair write: %v", err)
		}
		if _, err := f.ReadFile(p, "/f0"); err != nil {
			t.Errorf("post-repair read: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The failed write must not have registered the file.
	if _, ok := f.Tree().Get("/f1"); ok {
		t.Fatal("file table contains a frame whose write failed")
	}
}

// A failed data write never half-registers state: the journal entry and
// file-table update are atomic with the successful device write.
func TestFailedWriteLeavesNoPartialState(t *testing.T) {
	e := sim.NewEngine(1)
	f := newTestFS(e)
	e.Spawn("io", func(p *sim.Proc) {
		f.node.SSD.Fail()
		f.WriteFile(p, "/f0", vfs.SizeOnly(1<<20))
		f.node.SSD.Repair()
		if _, err := f.ReadFile(p, "/f0"); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("read of never-written file: err = %v, want ErrNotExist", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
