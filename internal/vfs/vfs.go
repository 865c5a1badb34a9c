// Package vfs defines the POSIX-flavoured filesystem interface shared by
// every simulated storage backend (node-local XFS, Lustre, DYAD's staging
// area), plus a path-tree implementation backends embed.
//
// The workload in the paper is whole-file per frame: a producer serializes
// one frame into one file, a consumer reads that file back. The interface
// therefore offers whole-file operations; payloads are held by reference
// (never copied) so large ensembles stay cheap in host memory.
package vfs

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Errors returned by filesystem operations.
var (
	ErrNotExist = errors.New("vfs: file does not exist")
	// ErrClosed marks an operation on a closed handle (including a second
	// Close).
	ErrClosed = errors.New("vfs: handle closed")
	// ErrInvalidRange marks a byte range that is negative, past EOF, or
	// would leave a hole.
	ErrInvalidRange = errors.New("vfs: invalid byte range")
)

// FS is the storage interface producers and consumers program against.
// Every operation takes the calling simulated process and charges virtual
// time according to the backend's cost model. Content moves as immutable
// Payload handles: a write hands the backend a shared reference and a read
// returns the same reference — no backend copies payload bytes.
type FS interface {
	// WriteFile creates (or replaces) path with pl.
	WriteFile(p *sim.Proc, path string, pl Payload) error
	// ReadFile returns the payload stored at path.
	ReadFile(p *sim.Proc, path string) (Payload, error)
}

// Clean canonicalizes a path: forward slashes, single separators, leading
// slash, no trailing slash (except root). "." segments are dropped; ".."
// segments are kept verbatim (a simulated path names a file, it is never
// resolved against a directory tree).
//
// A path that is already canonical is returned as is, after one scan and
// with no allocation, so layers may re-check a path they were handed for
// free. Frame paths are built canonical and cleaned once, at the public
// boundary (each vfs.FS entry point, dyad's Produce and Consume).
func Clean(path string) string {
	if isClean(path) {
		return path
	}
	parts := strings.Split(path, "/")
	out := parts[:0]
	for _, s := range parts {
		if s != "" && s != "." {
			out = append(out, s)
		}
	}
	return "/" + strings.Join(out, "/")
}

// isClean reports whether Clean(path) == path: root, or a leading slash
// followed by segments none of which is empty or ".".
func isClean(path string) bool {
	if path == "/" {
		return true
	}
	n := len(path)
	if n < 2 || path[0] != '/' || path[n-1] == '/' {
		return false
	}
	for i := 0; i < n-1; i++ {
		if path[i] != '/' {
			continue
		}
		// path[i+1] starts a segment: reject it when empty or ".".
		switch path[i+1] {
		case '/':
			return false
		case '.':
			if i+2 == n || path[i+2] == '/' {
				return false
			}
		}
	}
	return true
}

// Tree is an in-memory file table keyed by cleaned path. Its methods
// clean the paths they are given, which is free for a canonical path. It
// holds payload handles by value, so storing a file neither copies content
// nor allocates an entry. Backends embed a Tree and wrap it with their cost
// models. Tree itself charges no virtual time.
type Tree struct {
	files map[string]Payload
}

// The engines' free lists of trees and of their file tables.
var (
	trees      = sim.NewFreeList[Tree]()
	fileTables = sim.NewFreeList[map[string]Payload]()
)

// NewTree returns an empty file table for e's current run: e lends the
// tree and its table (sim.FreeList.Lend, sim.LendMap), so a warmed engine
// hands back one an earlier run grew. The tree is valid until e's next
// Reset.
func NewTree(e *sim.Engine) *Tree {
	t := trees.Lend(e)
	*t = Tree{files: sim.LendMap(fileTables, e)}
	return t
}

// Put stores pl at path (replacing any existing file).
func (t *Tree) Put(path string, pl Payload) {
	t.files[Clean(path)] = pl
}

// Get returns the payload at path.
func (t *Tree) Get(path string) (Payload, bool) {
	pl, ok := t.files[Clean(path)]
	return pl, ok
}

// Size returns the stored size at path.
func (t *Tree) Size(path string) (int64, bool) {
	pl, ok := t.files[Clean(path)]
	if !ok {
		return 0, false
	}
	return pl.Size(), true
}

// Remove deletes path, reporting whether it existed.
func (t *Tree) Remove(path string) bool {
	p := Clean(path)
	_, ok := t.files[p]
	delete(t.files, p)
	return ok
}

// Len returns the number of stored files.
func (t *Tree) Len() int { return len(t.files) }

// PathError decorates an error with the operation and path, in the style
// of os.PathError.
func PathError(op, path string, err error) error {
	return fmt.Errorf("%s %s: %w", op, path, err)
}
