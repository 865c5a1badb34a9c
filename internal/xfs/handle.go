package xfs

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// handle is a byte-range view of one XFS file.
type handle struct {
	fs     *FS
	path   string
	closed bool
}

// Open implements vfs.HandleFS.
func (f *FS) Open(p *sim.Proc, path string) (vfs.Handle, error) {
	path = vfs.Clean(path)
	p.Sleep(f.params.MetaLatency)
	if _, ok := f.tree.Get(path); !ok {
		return nil, vfs.PathError("open", path, vfs.ErrNotExist)
	}
	return &handle{fs: f, path: path}, nil
}

// CreateFile implements vfs.HandleFS: creates/truncates path.
func (f *FS) CreateFile(p *sim.Proc, path string) (vfs.Handle, error) {
	path = vfs.Clean(path)
	p.Sleep(f.params.MetaLatency)
	// Inode create/truncate journal.
	if _, err := f.node.SSD.Write(p, f.params.JournalBytes); err != nil {
		return nil, vfs.PathError("create", path, err)
	}
	f.tree.Put(path, vfs.Payload{})
	return &handle{fs: f, path: path}, nil
}

func (h *handle) Size() int64 {
	sz, _ := h.fs.tree.Size(h.path)
	return sz
}

func (h *handle) check(p *sim.Proc) error {
	if h.closed {
		return vfs.PathError("xfs", h.path, vfs.ErrClosed)
	}
	p.Sleep(h.fs.params.MetaLatency)
	return nil
}

// ReadAt charges the device for the range only.
func (h *handle) ReadAt(p *sim.Proc, off, n int64) ([]byte, error) {
	if err := h.check(p); err != nil {
		return nil, err
	}
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("xfs: %s: negative range (%d, %d): %w", h.path, off, n, vfs.ErrInvalidRange)
	}
	pl, ok := h.fs.tree.Get(h.path)
	if !ok {
		return nil, vfs.PathError("read", h.path, vfs.ErrNotExist)
	}
	if off+n > pl.Size() {
		return nil, fmt.Errorf("xfs: %s: read [%d,%d) past EOF %d: %w", h.path, off, off+n, pl.Size(), vfs.ErrInvalidRange)
	}
	if !pl.HasBytes() {
		return nil, vfs.PathError("read", h.path, vfs.ErrSizeOnly)
	}
	if _, err := h.fs.node.SSD.Read(p, n); err != nil {
		return nil, vfs.PathError("read", h.path, err)
	}
	return pl.Bytes()[off : off+n], nil
}

// WriteAt charges the device for the range plus a journal commit.
func (h *handle) WriteAt(p *sim.Proc, off int64, data []byte) error {
	if err := h.check(p); err != nil {
		return err
	}
	cur, ok := h.fs.tree.Get(h.path)
	if !ok {
		return vfs.PathError("write", h.path, vfs.ErrNotExist)
	}
	if off < 0 || off > cur.Size() {
		return fmt.Errorf("xfs: %s: write at %d would leave a hole (size %d): %w", h.path, off, cur.Size(), vfs.ErrInvalidRange)
	}
	if _, err := h.fs.node.SSD.Write(p, h.fs.params.JournalBytes); err != nil {
		return vfs.PathError("write", h.path, err)
	}
	if _, err := h.fs.node.SSD.Write(p, int64(len(data))); err != nil {
		return vfs.PathError("write", h.path, err)
	}
	h.fs.tree.Put(h.path, vfs.SplicePayload(cur, off, vfs.BytesPayload(data)))
	return nil
}

// Append adds data at EOF.
func (h *handle) Append(p *sim.Proc, data []byte) error {
	return h.WriteAt(p, h.Size(), data)
}

// Close releases the handle (metadata cost only).
func (h *handle) Close(p *sim.Proc) error {
	if h.closed {
		return vfs.PathError("close", h.path, vfs.ErrClosed)
	}
	p.Sleep(h.fs.params.MetaLatency)
	h.closed = true
	return nil
}

var _ vfs.HandleFS = (*FS)(nil)
