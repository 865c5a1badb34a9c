// Package kvs models the key-value store DYAD uses for global metadata
// management and for its loosely-coupled first-touch synchronization (the
// Flux KVS in the real system). The store runs as a queued service hosted
// on one node; clients on other nodes pay network round trips, and every
// operation queues at the single server — which is exactly the "stress on
// KVS" effect the paper observes in Figure 9 for small, bursty frames.
package kvs

import (
	"errors"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrNoSuchKey is the error of a lookup of a key that has not been
// committed. Callers test it with errors.Is; the loose WaitFor path is the
// blocking alternative. A miss returns it as is, so it costs no allocation:
// DYAD misses whenever a producer falls behind its consumer.
var ErrNoSuchKey = errors.New("kvs: no such key")

// Params is the KVS cost model.
type Params struct {
	CommitService time.Duration // server time per commit (Put)
	LookupService time.Duration // server time per lookup (Get/Stat)
	WatchService  time.Duration // server time to register a watch
	MsgBytes      int64         // request/response message size
}

// DefaultParams returns a Flux-KVS-like cost model.
func DefaultParams() Params {
	return Params{
		CommitService: 90 * time.Microsecond,
		LookupService: 35 * time.Microsecond,
		WatchService:  45 * time.Microsecond,
		MsgBytes:      256,
	}
}

// Record is a committed value: the metadata of one produced file, the id
// of the node that owns its data.
type Record struct {
	Owner int
}

// RecordBytes is a record's size on the wire, which every commit, lookup
// and notification carries: DYAD's owner and file-size words. The size
// word is not kept, since a consumer sizes its pull from the payload.
const RecordBytes = 16

// Store is the key-value service.
type Store struct {
	cl     *cluster.Cluster
	node   *cluster.Node
	params Params
	server *sim.Resource

	data    map[string]Record
	watches map[string]*sim.Latch

	Commits int64
	Lookups int64
	Waits   int64

	// commitLat is a sampled latency histogram (nil when no metrics
	// registry is attached — Observe on nil is free).
	commitLat *metrics.Histogram
}

// RegisterMetrics registers the store's sampled series under prefix
// (for example "dyad/kvs"): in-flight requests and server utilization on
// the dashboard, commit/lookup rates, watch-wait counts, and a commit
// latency histogram. Nil-safe on a nil registry.
func (s *Store) RegisterMetrics(reg *metrics.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Gauge(prefix+"/inflight", func() float64 {
		return float64(s.server.InUse() + s.server.QueueLen())
	}).OnDashboard()
	reg.Util(prefix+"/util", 1, func() float64 { return float64(s.server.BusyUnitNanos()) })
	reg.Rate(prefix+"/commit_rate", func() float64 { return float64(s.Commits) })
	reg.Rate(prefix+"/lookup_rate", func() float64 { return float64(s.Lookups) })
	reg.Counter(prefix+"/watch_waits", func() float64 { return float64(s.Waits) })
	s.commitLat = reg.Histogram(prefix + "/commit_lat")
}

// The engines' free lists of the stores and their tables.
var (
	stores      = sim.NewFreeList[Store]()
	dataTables  = sim.NewFreeList[map[string]Record]()
	watchTables = sim.NewFreeList[map[string]*sim.Latch]()
)

// New creates a store hosted on the given node. The store and its tables
// are lent by the cluster's engine (sim.FreeList.Lend, sim.LendMap), and a
// store an earlier run hosted on a node of the same name keeps its server
// queue, reset: the store is valid until the engine's next Reset.
func New(cl *cluster.Cluster, node *cluster.Node, params Params) *Store {
	e := cl.Engine()
	s := stores.Lend(e)
	server := s.server
	if server != nil && s.node.Name() == node.Name() {
		server.Reset()
	} else {
		server = sim.NewResource(e, node.Name()+"/kvs", 1)
	}
	*s = Store{
		cl:      cl,
		node:    node,
		params:  params,
		server:  server,
		data:    sim.LendMap(dataTables, e),
		watches: sim.LendMap(watchTables, e),
	}
	return s
}

// Node returns the hosting node.
func (s *Store) Node() *cluster.Node { return s.node }

// Commit publishes rec under key, firing any watches. The calling
// process pays the round trip from its node plus queued server time.
func (s *Store) Commit(p *sim.Proc, from *cluster.Node, key string, rec Record) {
	s.Commits++
	start := p.Now()
	r := p.Span("kvs", "commit", trace.ClassDetail)
	s.cl.RPC(p, from, s.node, s.params.MsgBytes+RecordBytes, 64, s.server, s.params.CommitService)
	s.commitLat.Observe(r.End(RecordBytes, key))
	p.CritHop(key, "kvs_commit", start, RecordBytes)
	s.data[key] = rec
	if l, ok := s.watches[key]; ok {
		l.Fire()
	}
}

// Lookup fetches the record under key. A key that has not been committed
// returns ErrNoSuchKey (the round trip is still paid: the server answered
// "not found").
func (s *Store) Lookup(p *sim.Proc, from *cluster.Node, key string) (Record, error) {
	s.Lookups++
	v, ok := s.data[key]
	resp := int64(64)
	if ok {
		resp += RecordBytes
	}
	r := p.Span("kvs", "lookup", trace.ClassDetail)
	s.cl.RPC(p, from, s.node, s.params.MsgBytes, resp, s.server, s.params.LookupService)
	r.End(0, key)
	if !ok {
		return Record{}, ErrNoSuchKey
	}
	p.CritDepend(key)
	return v, nil
}

// WaitFor blocks until key exists, then returns its record. If the key is
// already present it degenerates to a Lookup. This is DYAD's loose
// first-consumption synchronization: the consumer waits, the producer is
// never involved.
func (s *Store) WaitFor(p *sim.Proc, from *cluster.Node, key string) Record {
	if v, ok := s.data[key]; ok {
		s.Lookups++
		s.cl.RPC(p, from, s.node, s.params.MsgBytes, 64+RecordBytes, s.server, s.params.LookupService)
		return v
	}
	s.Waits++
	// Register the watch (one round trip), block until the commit fires it,
	// then receive the notification message. The commit may land while the
	// registration round trip is in flight; the re-check below closes that
	// window (the server replies with the value immediately in that case).
	s.cl.RPC(p, from, s.node, s.params.MsgBytes, 64, s.server, s.params.WatchService)
	if v, ok := s.data[key]; ok {
		return v
	}
	l, ok := s.watches[key]
	if !ok {
		l = &sim.Latch{}
		s.watches[key] = l
	}
	r := p.Span("kvs", "watch_block", trace.ClassDetail)
	l.Wait(p)
	r.End(0, key)
	p.CritDepend(key)
	s.cl.Transfer(p, s.node, from, 64+RecordBytes)
	return s.data[key]
}

// WatchWait is the non-adaptive variant of WaitFor: it always pays the
// watch-registration round trip, even when the key is already present.
// Used by ablation studies that disable DYAD's protocol switching.
func (s *Store) WatchWait(p *sim.Proc, from *cluster.Node, key string) Record {
	s.Waits++
	s.cl.RPC(p, from, s.node, s.params.MsgBytes, 64, s.server, s.params.WatchService)
	if v, ok := s.data[key]; ok {
		s.cl.Transfer(p, s.node, from, 64+RecordBytes)
		return v
	}
	l, ok := s.watches[key]
	if !ok {
		l = &sim.Latch{}
		s.watches[key] = l
	}
	r := p.Span("kvs", "watch_block", trace.ClassDetail)
	l.Wait(p)
	r.End(0, key)
	p.CritDepend(key)
	s.cl.Transfer(p, s.node, from, 64+RecordBytes)
	return s.data[key]
}

// Len returns the number of committed keys.
func (s *Store) Len() int { return len(s.data) }
