package vfs

import (
	"errors"

	"repro/internal/sim"
)

// Handle is an open file supporting byte-range I/O — the POSIX-style
// access pattern underneath the whole-file convenience calls. Backends
// charge their cost models per operation; Lustre, for example, only
// touches the OSTs whose stripes a range covers. Range access needs real
// content: operating on a file stored as a size-only Payload is an error.
type Handle interface {
	// Size returns the current file size.
	Size() int64
	// ReadAt returns n bytes starting at off. Reading past EOF is an
	// error (the workload never produces short reads).
	ReadAt(p *sim.Proc, off, n int64) ([]byte, error)
	// WriteAt replaces the byte range [off, off+len(data)) — extending
	// the file if it ends there. Creating a hole (off > size) is an error.
	WriteAt(p *sim.Proc, off int64, data []byte) error
	// Append adds data at the end of the file.
	Append(p *sim.Proc, data []byte) error
	// Close releases the handle.
	Close(p *sim.Proc) error
}

// HandleFS is implemented by backends that support byte-range access.
type HandleFS interface {
	FS
	// Open returns a handle on an existing file.
	Open(p *sim.Proc, path string) (Handle, error)
	// Create returns a handle on a new (or truncated) file.
	CreateFile(p *sim.Proc, path string) (Handle, error)
}

// ErrSizeOnly is returned by byte-range operations on files stored as
// size-only payload descriptors: there are no bytes to read or splice.
var ErrSizeOnly = errors.New("vfs: file content is a size-only descriptor")
