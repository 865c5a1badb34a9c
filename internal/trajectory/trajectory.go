// Package trajectory implements the multi-frame trajectory container MD
// workflows write to disk — the "sequence of molecular conformations
// written to disk" of §II-A — on top of the byte-range filesystem API, so
// it works against any simulated backend (XFS, Lustre). It supports
// incremental appends during a run and indexed random access afterwards,
// which is what the traditional post-processing analysis path needs.
//
// Wire format: a fixed header (magic, version, model name, atom count)
// followed by length-prefixed encoded frames.
package trajectory

import (
	"encoding/binary"
	"fmt"

	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/vfs"
)

const (
	magic      = 0x4d445452 // "MDTR"
	version    = 1
	lenPrefix  = 8
	headerBase = 4 + 4 + 4 + 8 // magic, version, name length, atom count
)

// Writer appends frames to a trajectory file.
type Writer struct {
	h     vfs.Handle
	model string
	atoms int
}

// Create starts a new trajectory at path on fs.
func Create(p *sim.Proc, fs vfs.HandleFS, path, model string, atoms int) (*Writer, error) {
	h, err := fs.CreateFile(p, path)
	if err != nil {
		return nil, fmt.Errorf("trajectory: create: %w", err)
	}
	hdr := make([]byte, headerBase+len(model))
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(model)))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(atoms))
	copy(hdr[headerBase:], model)
	if err := h.Append(p, hdr); err != nil {
		return nil, fmt.Errorf("trajectory: header: %w", err)
	}
	return &Writer{h: h, model: model, atoms: atoms}, nil
}

// AppendFrame adds one frame; its model and atom count must match the
// trajectory header.
func (w *Writer) AppendFrame(p *sim.Proc, f *frame.Frame) error {
	if f.Model != w.model || f.Atoms() != w.atoms {
		return fmt.Errorf("trajectory: frame %s/%d atoms does not match header %s/%d",
			f.Model, f.Atoms(), w.model, w.atoms)
	}
	enc := f.Encode()
	rec := make([]byte, lenPrefix+len(enc))
	binary.LittleEndian.PutUint64(rec, uint64(len(enc)))
	copy(rec[lenPrefix:], enc)
	if err := w.h.Append(p, rec); err != nil {
		return fmt.Errorf("trajectory: append frame: %w", err)
	}
	return nil
}

// Close finishes the trajectory.
func (w *Writer) Close(p *sim.Proc) error { return w.h.Close(p) }

// Reader provides indexed access to a finished trajectory.
type Reader struct {
	h vfs.Handle
	// offsets[i] is the byte offset of frame i's payload; sizes[i] its length.
	offsets []int64
	sizes   []int64
}

// Open reads the header and builds the frame index by scanning only the
// length prefixes (cheap range reads, not the payloads).
func Open(p *sim.Proc, fs vfs.HandleFS, path string) (*Reader, error) {
	h, err := fs.Open(p, path)
	if err != nil {
		return nil, fmt.Errorf("trajectory: open: %w", err)
	}
	hdr, err := h.ReadAt(p, 0, headerBase)
	if err != nil {
		return nil, fmt.Errorf("trajectory: header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr) != magic {
		return nil, fmt.Errorf("trajectory: %s: bad magic", path)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
		return nil, fmt.Errorf("trajectory: %s: unsupported version %d", path, v)
	}
	// Each frame carries its own model and atom count, so the header's
	// are read, as a reader must to reach the first frame, but not kept.
	nameLen := int64(binary.LittleEndian.Uint32(hdr[8:]))
	if _, err := h.ReadAt(p, headerBase, nameLen); err != nil {
		return nil, fmt.Errorf("trajectory: model name: %w", err)
	}
	r := &Reader{h: h}
	off := int64(headerBase) + nameLen
	size := h.Size()
	for off < size {
		lp, err := h.ReadAt(p, off, lenPrefix)
		if err != nil {
			return nil, fmt.Errorf("trajectory: index scan at %d: %w", off, err)
		}
		n := int64(binary.LittleEndian.Uint64(lp))
		if n <= 0 || off+lenPrefix+n > size {
			return nil, fmt.Errorf("trajectory: corrupt record at %d (len %d, file %d)", off, n, size)
		}
		r.offsets = append(r.offsets, off+lenPrefix)
		r.sizes = append(r.sizes, n)
		off += lenPrefix + n
	}
	return r, nil
}

// Len returns the number of frames.
func (r *Reader) Len() int { return len(r.offsets) }

// Frame reads and decodes frame i.
func (r *Reader) Frame(p *sim.Proc, i int) (*frame.Frame, error) {
	if i < 0 || i >= len(r.offsets) {
		return nil, fmt.Errorf("trajectory: frame %d out of range [0,%d)", i, len(r.offsets))
	}
	buf, err := r.h.ReadAt(p, r.offsets[i], r.sizes[i])
	if err != nil {
		return nil, fmt.Errorf("trajectory: frame %d: %w", i, err)
	}
	f, err := frame.Decode(buf)
	if err != nil {
		return nil, fmt.Errorf("trajectory: frame %d: %w", i, err)
	}
	return f, nil
}

// Close releases the reader.
func (r *Reader) Close(p *sim.Proc) error { return r.h.Close(p) }
