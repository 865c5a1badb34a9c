package lustre

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// handle is a byte-range view of a striped Lustre file through one client.
type handle struct {
	c      *Client
	path   string
	closed bool
}

// Open implements vfs.HandleFS: one MDS lookup, then range I/O.
func (c *Client) Open(p *sim.Proc, path string) (vfs.Handle, error) {
	path = vfs.Clean(path)
	c.fs.mdsRPC(p, c.node)
	if _, ok := c.fs.tree.Get(path); !ok {
		return nil, vfs.PathError("open", path, vfs.ErrNotExist)
	}
	return &handle{c: c, path: path}, nil
}

// CreateFile implements vfs.HandleFS: MDS create with layout allocation.
func (c *Client) CreateFile(p *sim.Proc, path string) (vfs.Handle, error) {
	path = vfs.Clean(path)
	f := c.fs
	f.mdsRPC(p, c.node)
	if _, ok := f.layout[path]; !ok {
		f.layout[path] = f.nextOST
		f.nextOST = (f.nextOST + 1) % len(f.osts)
	}
	f.tree.Put(path, vfs.Payload{})
	return &handle{c: c, path: path}, nil
}

func (h *handle) Path() string { return h.path }

func (h *handle) Size() int64 {
	sz, _ := h.c.fs.tree.Size(h.path)
	return sz
}

// rangeChunks invokes fn for each stripe chunk a byte range covers, with
// the chunk index and the byte count of the range inside that chunk.
func (h *handle) rangeChunks(off, n int64, fn func(chunk int, bytes int64)) {
	stripe := h.c.fs.params.StripeSize
	for covered := int64(0); covered < n; {
		chunk := int((off + covered) / stripe)
		inChunk := stripe - (off+covered)%stripe
		if rest := n - covered; inChunk > rest {
			inChunk = rest
		}
		fn(chunk, inChunk)
		covered += inChunk
	}
}

// ReadAt issues RPCs only to the OSTs whose stripes the range covers.
func (h *handle) ReadAt(p *sim.Proc, off, n int64) ([]byte, error) {
	if h.closed {
		return nil, vfs.PathError("read", h.path, vfs.ErrClosed)
	}
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("lustre: %s: negative range (%d, %d): %w", h.path, off, n, vfs.ErrInvalidRange)
	}
	f := h.c.fs
	pl, ok := f.tree.Get(h.path)
	if !ok {
		return nil, vfs.PathError("read", h.path, vfs.ErrNotExist)
	}
	if off+n > pl.Size() {
		return nil, fmt.Errorf("lustre: %s: read [%d,%d) past EOF %d: %w", h.path, off, off+n, pl.Size(), vfs.ErrInvalidRange)
	}
	if !pl.HasBytes() {
		return nil, vfs.PathError("read", h.path, vfs.ErrSizeOnly)
	}
	first := f.layout[h.path]
	firstRPC := true
	h.rangeChunks(off, n, func(chunk int, bytes int64) {
		o := f.ostFor(first, chunk%f.params.StripeCount)
		service := f.params.OSTService + bwTime(bytes, f.params.OSTReadBandwidth)
		if firstRPC {
			service += f.params.PerFileReadOverhead
			firstRPC = false
		}
		f.rpc(p, h.c.node, o, 256, bytes, service)
	})
	return pl.Bytes()[off : off+n], nil
}

// WriteAt pushes only the covered stripes' OSTs.
func (h *handle) WriteAt(p *sim.Proc, off int64, data []byte) error {
	if h.closed {
		return vfs.PathError("write", h.path, vfs.ErrClosed)
	}
	f := h.c.fs
	cur, ok := f.tree.Get(h.path)
	if !ok {
		return vfs.PathError("write", h.path, vfs.ErrNotExist)
	}
	if off < 0 || off > cur.Size() {
		return fmt.Errorf("lustre: %s: write at %d would leave a hole (size %d): %w", h.path, off, cur.Size(), vfs.ErrInvalidRange)
	}
	first := f.layout[h.path]
	firstRPC := true
	h.rangeChunks(off, int64(len(data)), func(chunk int, bytes int64) {
		o := f.ostFor(first, chunk%f.params.StripeCount)
		service := f.params.OSTService + bwTime(bytes, f.params.OSTWriteBandwidth)
		if firstRPC {
			service += f.params.PerFileWriteOverhead
			firstRPC = false
		}
		f.rpc(p, h.c.node, o, bytes, 64, service)
	})
	f.tree.Put(h.path, vfs.SplicePayload(cur, off, vfs.BytesPayload(data)))
	return nil
}

// Append adds data at EOF.
func (h *handle) Append(p *sim.Proc, data []byte) error {
	return h.WriteAt(p, h.Size(), data)
}

// Close updates size/attributes at the MDS.
func (h *handle) Close(p *sim.Proc) error {
	if h.closed {
		return vfs.PathError("close", h.path, vfs.ErrClosed)
	}
	h.c.fs.mdsRPC(p, h.c.node)
	h.closed = true
	return nil
}

var _ vfs.HandleFS = (*Client)(nil)
