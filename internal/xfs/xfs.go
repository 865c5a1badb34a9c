// Package xfs models a node-local journaled filesystem (XFS in the paper)
// over a node's NVMe SSD. It is the fastest local storage option in the
// study: every byte goes to the local device, writes additionally pay a
// journal commit, and there is no way to reach another node's files —
// which is exactly why the paper's XFS configuration is restricted to
// single-node workflows.
package xfs

import (
	"time"

	"repro/internal/capacity"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Params is the XFS cost model.
type Params struct {
	// JournalBytes is charged to the device per metadata-mutating
	// operation (a create), modelling the log write.
	JournalBytes int64
	// MetaLatency is the in-memory bookkeeping cost per operation.
	MetaLatency time.Duration
}

// DefaultParams returns a realistic cost model for XFS on NVMe.
func DefaultParams() Params {
	return Params{
		JournalBytes: 4096,
		MetaLatency:  2 * time.Microsecond,
	}
}

// FS is one node-local XFS instance. It satisfies vfs.FS. Processes on
// other nodes must not use it (the real filesystem is simply not visible
// there); reaching across is a programming error the workflow layer guards.
type FS struct {
	node   *cluster.Node
	params Params
	tree   *vfs.Tree

	// Sampled-metrics state (cheap unconditional updates): journalPending
	// is the number of journal commits currently waiting on the device —
	// the journal backlog; journalBytes/journalOps accumulate log traffic.
	journalPending int64
	journalBytes   int64
	journalOps     int64
	// journalLat is a sampled commit latency histogram (nil when no
	// metrics registry is attached — Observe on nil is free).
	journalLat *metrics.Histogram

	// cap is the filesystem's finite byte budget; nil when capacity is off
	// (the default), keeping every capacity hook behind one nil check so
	// the unconstrained timeline is untouched.
	cap *capacity.Store
}

// RegisterMetrics registers the filesystem's sampled series under prefix
// (for example "xfs"): the journal backlog on the dashboard, plus journal
// bandwidth, commit rate, and a file-write commit latency histogram.
// Nil-safe on a nil registry.
func (f *FS) RegisterMetrics(reg *metrics.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Gauge(prefix+"/journal_backlog", func() float64 { return float64(f.journalPending) }).OnDashboard()
	reg.Rate(prefix+"/journal_bw", func() float64 { return float64(f.journalBytes) })
	reg.Rate(prefix+"/journal_commits", func() float64 { return float64(f.journalOps) })
	f.journalLat = reg.Histogram(prefix + "/journal_lat")
}

// mounts is the engines' free list of XFS instances.
var mounts = sim.NewFreeList[FS]()

// New mounts an XFS instance on the given node's SSD. The instance and
// its file table are lent by the node's engine (sim.FreeList.Lend,
// vfs.NewTree): the instance is valid until the engine's next Reset.
func New(node *cluster.Node, params Params) *FS {
	e := node.Engine()
	f := mounts.Lend(e)
	*f = FS{node: node, params: params, tree: vfs.NewTree(e)}
	return f
}

// SetCapacity attaches a finite byte budget to the filesystem. Evicted
// frames are removed from the file table; XFS has no shared mirror, so an
// eviction always drops the data and later reads fail with
// capacity.ErrEvicted. Pass nil to return to infinite capacity.
func (f *FS) SetCapacity(s *capacity.Store) { f.cap = s }

// Capacity returns the attached capacity store (nil when capacity is off).
func (f *FS) Capacity() *capacity.Store { return f.cap }

// Tree exposes the file table (for invariant checks in tests).
func (f *FS) Tree() *vfs.Tree { return f.tree }

// WriteFile implements vfs.FS: journal commit + data write on the local SSD.
// The payload is stored by reference, never copied.
func (f *FS) WriteFile(p *sim.Proc, path string, pl vfs.Payload) error {
	path = vfs.Clean(path)
	wStart := p.Now()
	p.CritBegin("xfs", "write", trace.ClassDetail)
	defer p.CritEnd()
	p.Sleep(f.params.MetaLatency)
	if f.cap != nil {
		// Claim the bytes before paying any device cost: eviction or
		// back-pressure happens here, and ErrNoSpace fails the write fast.
		if err := f.cap.Reserve(p, path, pl.Size()); err != nil {
			return vfs.PathError("write", path, err)
		}
	}
	jStart := p.Now()
	f.journalPending++
	f.journalOps++
	f.journalBytes += f.params.JournalBytes
	if _, err := f.node.SSD.Write(p, f.params.JournalBytes); err != nil {
		f.journalPending--
		if f.cap != nil {
			f.cap.Remove(path) // roll back the reservation
		}
		return vfs.PathError("write", path, err)
	}
	f.journalPending--
	f.journalLat.Observe(p.Now() - jStart)
	p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "xfs", Name: "journal_commit",
		Start: jStart, Dur: p.Now() - jStart, Bytes: f.params.JournalBytes, Attr: path})
	if _, err := f.node.SSD.Write(p, pl.Size()); err != nil {
		if f.cap != nil {
			f.cap.Remove(path)
		}
		return vfs.PathError("write", path, err)
	}
	f.tree.Put(path, pl)
	p.CritProduce(path)
	p.CritHop(path, "write", wStart, pl.Size())
	return nil
}

// ReadFile implements vfs.FS: data read from the local SSD.
func (f *FS) ReadFile(p *sim.Proc, path string) (vfs.Payload, error) {
	path = vfs.Clean(path)
	rStart := p.Now()
	p.CritBegin("xfs", "read", trace.ClassDetail)
	defer p.CritEnd()
	p.Sleep(f.params.MetaLatency)
	pl, ok := f.tree.Get(path)
	if !ok {
		if f.cap != nil && f.cap.State(path) != capacity.StateUnknown {
			// The frame existed and was evicted: XFS has no mirror, so the
			// data is gone for good.
			return vfs.Payload{}, vfs.PathError("read", path, capacity.ErrEvicted)
		}
		return vfs.Payload{}, vfs.PathError("read", path, vfs.ErrNotExist)
	}
	if f.cap != nil {
		switch f.cap.State(path) {
		case capacity.StateSpilled, capacity.StateDropped:
			// An eviction raced this frame's in-flight write: the victim scan
			// ran between our reservation and the journal commit landing the
			// entry in the tree. The budget already reclaimed the bytes, so
			// reads must honor the tombstone.
			f.tree.Remove(path)
			return vfs.Payload{}, vfs.PathError("read", path, capacity.ErrEvicted)
		}
	}
	if _, err := f.node.SSD.Read(p, pl.Size()); err != nil {
		return vfs.Payload{}, vfs.PathError("read", path, err)
	}
	if f.cap != nil {
		f.cap.MarkConsumed(path)
	}
	p.CritDepend(path)
	p.CritHop(path, "read", rStart, pl.Size())
	return pl, nil
}

var _ vfs.FS = (*FS)(nil)
