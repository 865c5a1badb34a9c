// Package dyad implements the Dynamic and Asynchronous Data Streamliner
// middleware the paper studies (flux-framework/dyad), on top of the
// simulated cluster. It reproduces DYAD's three defining mechanisms:
//
//  1. Node-local storage accelerators: producers stage frames on their
//     node's NVMe; recently staged data is served from the page cache and
//     the consumer side keeps a RAM-backed cache (burst-buffer style).
//  2. Multi-protocol automatic synchronization: the first consumption of a
//     not-yet-produced file blocks on a key-value-store watch (loosely
//     coupled: the producer never waits), while subsequent consumptions —
//     when data is already available because producer and consumer overlap
//     — use a cheap lookup plus file-lock protocol.
//  3. RDMA-enabled transfer: a consumer on another node pulls the staged
//     file directly from the owner's broker over the fabric at near-wire
//     bandwidth, stores it in its node-local cache, and reads it locally.
//
// Region names follow the real DYAD's Caliper annotations so the Thicket
// analyses of the paper's Figures 9 and 10 can be regenerated:
// dyad_produce, dyad_commit, dyad_consume, dyad_fetch, dyad_get_data,
// dyad_cons_store, read_single_buf.
package dyad

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/capacity"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/kvs"
	"repro/internal/locks"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/xfs"
)

// Params is the DYAD cost model.
type Params struct {
	// Staging is the cost model of the node-local staging writes
	// (durable path: journal + NVMe data write, like the node-local FS).
	Staging xfs.Params
	// BrokerService is the broker's per-request processing overhead.
	BrokerService time.Duration
	// ClientOverhead is the client-library cost per consume: POSIX
	// interception, path resolution, and cache management. It is part of
	// DYAD's data-movement overhead versus a raw filesystem read.
	ClientOverhead time.Duration
	// PageCacheBandwidth/Latency model reads of recently staged files
	// (always hot in this workload: data is consumed moments after being
	// produced).
	PageCacheBandwidth float64
	PageCacheLatency   time.Duration
	// CacheWriteBandwidth models the consumer-side RAM cache store.
	CacheWriteBandwidth float64
	// Locks is the file-lock cost model for the fast-path synchronization.
	Locks locks.Params
	// KVS is the metadata store cost model. Commits carry DYAD's global
	// namespace registration, the production-side overhead the paper
	// measures against raw XFS.
	KVS kvs.Params

	// FetchTimeout is the client's deadline on a fetch request to a remote
	// broker; requests against a crashed broker come back empty after this
	// long. Zero defaults to 200ms.
	FetchTimeout time.Duration
	// FetchRetry is the capped-exponential backoff policy applied after
	// fetch timeouts; once its retries are exhausted the client degrades to
	// a direct read of the producer's staging area (DESIGN.md §3d). A zero
	// policy defaults to {Base: 50ms, Cap: 800ms, Max: 3}.
	FetchRetry faults.Backoff

	// Ablation switches (all false in the real system). They disable, one
	// by one, the three mechanisms Figure 2 of the paper credits for
	// DYAD's performance, so their contribution can be measured.

	// NoAdaptiveSync makes every consumption use the loosely-coupled KVS
	// watch protocol instead of switching to the cheap lookup+lock fast
	// path once the flow is established.
	NoAdaptiveSync bool
	// NoBurstBuffer removes the node-local storage accelerators: broker
	// reads come from the NVMe device instead of the page cache, and the
	// consumer cache store writes through to the NVMe staging area.
	NoBurstBuffer bool
	// NoDirectTransfer removes RDMA-style producer->consumer pulls:
	// remote data is staged through the KVS/management node
	// (store-and-forward), as coarse workflow systems relay through
	// shared services.
	NoDirectTransfer bool
}

// DefaultParams returns the calibrated DYAD model.
func DefaultParams() Params {
	k := kvs.DefaultParams()
	k.CommitService = 140 * time.Microsecond
	return Params{
		Staging:             xfs.DefaultParams(),
		BrokerService:       25 * time.Microsecond,
		ClientOverhead:      300 * time.Microsecond,
		PageCacheBandwidth:  12e9,
		PageCacheLatency:    20 * time.Microsecond,
		CacheWriteBandwidth: 8e9,
		Locks:               locks.DefaultParams(),
		KVS:                 k,
		FetchTimeout:        200 * time.Millisecond,
		FetchRetry:          faults.Backoff{Base: 50 * time.Millisecond, Cap: 800 * time.Millisecond, Max: 3},
	}
}

// System is one DYAD deployment: a KVS for global metadata plus one broker
// per participating node.
type System struct {
	cl       *cluster.Cluster
	params   Params
	kvs      *kvs.Store
	brokers  []*Broker // by node ID, nil until the node's first client
	fallback func(*cluster.Node) vfs.FS

	// Finite burst-buffer capacity (SetCapacity). capSpec nil or disabled
	// means infinite budgets: no broker gets a capacity store and every
	// capacity hook stays one nil check.
	capSpec *capacity.Spec
	capMet  *capacity.Metrics

	// Produced counts frames published; Fetched counts remote transfers.
	Produced int64
	Fetched  int64

	// Sampled-metrics counters (cheap unconditional increments; observed
	// only when a registry samples them). CacheHits/CacheMisses split
	// consumer-side RAM-cache lookups; StagingReads counts reads served
	// from a producer's NVMe staging area (local consumes, remote broker
	// reads, and degraded direct reads); InflightFetches is the number of
	// remote fetches currently in flight.
	CacheHits       int64
	CacheMisses     int64
	StagingReads    int64
	InflightFetches int64

	// produceLat/fetchLat are sampled latency histograms (nil when no
	// metrics registry is attached — Observe on nil is free).
	produceLat *metrics.Histogram
	fetchLat   *metrics.Histogram

	// Recovery accumulates the run's fault-recovery activity (timeouts,
	// retries, degraded reads); all zero on healthy runs.
	Recovery faults.Metrics
}

// Broker is the per-node DYAD service: it owns the node's staging area,
// serves remote fetch requests, and manages the node's consumer cache.
type Broker struct {
	sys     *System
	node    *cluster.Node
	staging *xfs.FS
	cache   *vfs.Tree // RAM-backed consumer-side cache
	srv     *sim.Resource
	locks   *locks.Manager

	// stagingCap/cacheCap are the node's finite byte budgets; nil when
	// capacity is off. stagingCap is also attached to the staging xfs.FS so
	// Produce's WriteFile reserves (evicts, stalls) through it.
	stagingCap *capacity.Store
	cacheCap   *capacity.Store

	// downUntil marks the broker crashed until the given virtual time
	// (fault injection; zero means it has never crashed).
	downUntil sim.Time
}

// meta is the KVS metadata record for a produced file.
type meta struct {
	owner int
	size  int64
}

func encodeMeta(m meta) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf[0:], uint64(m.owner))
	binary.LittleEndian.PutUint64(buf[8:], uint64(m.size))
	return buf
}

func decodeMeta(b []byte) meta {
	return meta{
		owner: int(binary.LittleEndian.Uint64(b[0:])),
		size:  int64(binary.LittleEndian.Uint64(b[8:])),
	}
}

// The engines' free lists of deployments, brokers and clients.
var (
	systems    = sim.NewFreeList[System]()
	brokerList = sim.NewFreeList[Broker]()
	clients    = sim.NewFreeList[Client]()
)

// New deploys DYAD over the cluster with its KVS hosted on kvsNode. The
// deployment, its KVS, brokers and clients are lent by the cluster's
// engine (sim.FreeList.Lend): each is valid until the engine's next Reset.
func New(cl *cluster.Cluster, kvsNode *cluster.Node, params Params) *System {
	// Recovery knobs only matter when a fault actually lands, so defaulting
	// them here cannot change healthy-run timelines.
	if params.FetchTimeout <= 0 {
		params.FetchTimeout = 200 * time.Millisecond
	}
	if params.FetchRetry == (faults.Backoff{}) {
		params.FetchRetry = faults.Backoff{Base: 50 * time.Millisecond, Cap: 800 * time.Millisecond, Max: 3}
	}
	s := systems.Lend(cl.Engine())
	*s = System{
		cl:      cl,
		params:  params,
		kvs:     kvs.New(cl, kvsNode, params.KVS),
		brokers: append(s.brokers[:0], make([]*Broker, cl.Nodes())...),
	}
	return s
}

// KVS exposes the metadata store (for stats and tests).
func (s *System) KVS() *kvs.Store { return s.kvs }

// SetFallback installs a shared-filesystem mirror (Lustre in the paper's
// deployments): Produce writes a second copy there, and a consumer that can
// reach neither the owner's broker nor its staging device reads the mirror
// instead of failing. The mount function returns the shared filesystem as
// seen from one node, so each client pays its own network path to it. Nil
// (the default) disables mirroring.
func (s *System) SetFallback(mount func(*cluster.Node) vfs.FS) { s.fallback = mount }

// SetCapacity imposes finite burst-buffer budgets on every broker: spec's
// StagingBytes bounds each node's NVMe staging area and CacheBytes its
// consumer RAM cache (0 = infinite). Evicted-but-unconsumed staging frames
// spill when a fallback mirror is installed (SetFallback) — later fetches
// degrade to the mirror — and drop otherwise, failing later fetches with a
// wrapped capacity.ErrEvicted. met accumulates the run's pressure record
// (a private record is kept when nil). Call before any client traffic; a
// nil or disabled spec leaves capacity off.
func (s *System) SetCapacity(spec *capacity.Spec, met *capacity.Metrics) {
	if !spec.Enabled() {
		return
	}
	if met == nil {
		met = &capacity.Metrics{}
	}
	cp := *spec // private copy: Provision mutates the budgets at runtime
	s.capSpec = &cp
	s.capMet = met
	for _, b := range s.brokers {
		if b != nil {
			b.buildCapacity()
		}
	}
}

// Provision resizes every broker's budgets at virtual runtime (dynamic
// burst-buffer provisioning; 0 = infinite). Shrinking below occupancy
// forces evictions; growing wakes back-pressured producers. No-op when
// capacity is off.
func (s *System) Provision(stagingBytes, cacheBytes int64) {
	if s.capSpec == nil {
		return
	}
	s.capSpec.StagingBytes = stagingBytes
	s.capSpec.CacheBytes = cacheBytes
	for _, b := range s.brokers {
		if b != nil {
			b.stagingCap.Resize(stagingBytes)
			b.cacheCap.Resize(cacheBytes)
		}
	}
}

// StagingOccupancy returns node nodeID's staging-store occupancy in bytes
// (0 when capacity is off or the node has no broker yet).
func (s *System) StagingOccupancy(nodeID int) int64 {
	if b := s.brokers[nodeID]; b != nil {
		return b.stagingCap.Used()
	}
	return 0
}

// Broker returns (creating on first use) the broker on node. A broker an
// earlier run had on a node of the same name keeps its server queue,
// reset.
func (s *System) Broker(node *cluster.Node) *Broker {
	b := s.brokers[node.ID]
	if b == nil {
		e := s.cl.Engine()
		b = brokerList.Lend(e)
		srv := b.srv
		if srv != nil && b.node.Name() == node.Name() {
			srv.Reset()
		} else {
			srv = sim.NewResource(e, node.Name()+"/dyad-broker", 1)
		}
		*b = Broker{
			sys:     s,
			node:    node,
			staging: xfs.New(node, s.params.Staging),
			cache:   vfs.NewTree(e),
			srv:     srv,
			locks:   locks.NewManager(e, s.params.Locks),
		}
		if s.capSpec != nil {
			b.buildCapacity()
		}
		s.brokers[node.ID] = b
	}
	return b
}

// buildCapacity attaches the system's capacity budgets to the broker.
func (b *Broker) buildCapacity() {
	spec, met := b.sys.capSpec, b.sys.capMet
	ev := capacity.NewEvictor(spec.Policy)
	b.stagingCap = capacity.NewStore(b.sys.cl.Engine(), b.node.Name()+"/staging", spec.StagingBytes, ev, false, met,
		func(path string, size int64, consumed bool) bool {
			b.staging.Tree().Remove(path)
			// The frame spills iff the deployment mirrors every produce to
			// the shared filesystem — degraded reads find it there.
			return b.sys.fallback != nil
		})
	b.staging.SetCapacity(b.stagingCap)
	b.cacheCap = capacity.NewStore(b.sys.cl.Engine(), b.node.Name()+"/cache", spec.CacheBytes, capacity.NewEvictor(spec.Policy), true, met,
		func(path string, size int64, consumed bool) bool {
			b.cache.Remove(path)
			return false // only a copy is lost; the staging original survives
		})
}

// stagingGet is a tombstone-aware staging lookup. A frame evicted while its
// write is still in flight lands in the tree after the victim scan ran, so
// the tree can briefly disagree with the byte budget; the budget wins —
// evicted frames read as gone even when the bytes raced in.
func (b *Broker) stagingGet(path string) (vfs.Payload, bool) {
	got, ok := b.staging.Tree().Get(path)
	if ok && b.stagingCap != nil {
		switch b.stagingCap.State(path) {
		case capacity.StateSpilled, capacity.StateDropped:
			b.staging.Tree().Remove(path)
			return vfs.Payload{}, false
		}
	}
	return got, ok
}

// Staging exposes a node's staging filesystem (tests and invariants).
func (b *Broker) Staging() *xfs.FS { return b.staging }

// Cache exposes a node's consumer-side cache (tests and invariants).
func (b *Broker) Cache() *vfs.Tree { return b.cache }

// Crash kills the broker for d of virtual time: its RAM cache is lost and
// fetch requests against it time out until the restart. The NVMe staging
// area survives the crash — which is what makes the degraded direct-staging
// read possible.
func (b *Broker) Crash(d time.Duration) {
	if until := b.sys.cl.Engine().Now() + d; until > b.downUntil {
		b.downUntil = until
	}
	b.cache = vfs.NewTree(b.sys.cl.Engine())
	b.cacheCap.Clear() // the lost cache frees its budget (nil-safe)
	b.sys.Recovery.BrokerRestarts++
}

// Down reports whether the broker is currently crashed.
func (b *Broker) Down() bool { return b.sys.cl.Engine().Now() < b.downUntil }

// cachedRead charges a page-cache read of n bytes (or an NVMe read when
// the burst-buffer ablation is active — the only way it can fail).
func (b *Broker) cachedRead(p *sim.Proc, n int64) error {
	if b.sys.params.NoBurstBuffer {
		_, err := b.node.SSD.Read(p, n)
		return err
	}
	p.Sleep(b.sys.params.PageCacheLatency + cost(n, b.sys.params.PageCacheBandwidth))
	return nil
}

// cacheStore charges a RAM cache write of n bytes (or a full journaled
// NVMe write when the burst-buffer ablation is active).
func (b *Broker) cacheStore(p *sim.Proc, n int64) error {
	if b.sys.params.NoBurstBuffer {
		_, err := b.node.SSD.Write(p, n)
		return err
	}
	p.Sleep(b.sys.params.PageCacheLatency + cost(n, b.sys.params.CacheWriteBandwidth))
	return nil
}

func cost(n int64, bw float64) time.Duration {
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// Client is a process-side DYAD handle bound to one node. The same type
// serves producers and consumers, mirroring the real DYAD client library.
type Client struct {
	sys    *System
	broker *Broker
	// flowSynced records flows this client has synchronized at least once
	// via the blocking KVS watch; later consumptions in the same flow
	// switch to the cheap lookup + file-lock protocol.
	flowSynced map[string]bool
	// fallback is the client's lazily mounted view of the shared mirror.
	fallback vfs.FS
}

// fallbackFS returns the client's mount of the shared mirror, or nil when
// no fallback is installed.
func (c *Client) fallbackFS() vfs.FS {
	if c.fallback == nil && c.sys.fallback != nil {
		c.fallback = c.sys.fallback(c.broker.node)
	}
	return c.fallback
}

// flowTables is the engines' free list of the clients' synced flows.
var flowTables = sim.NewFreeList[map[string]bool]()

// NewClient creates a client for processes on node. The client and its
// table of synced flows are lent by the cluster's engine
// (sim.FreeList.Lend, sim.LendMap): the client is valid until the
// engine's next Reset.
func (s *System) NewClient(node *cluster.Node) *Client {
	e := s.cl.Engine()
	c := clients.Lend(e)
	*c = Client{
		sys:        s,
		broker:     s.Broker(node),
		flowSynced: sim.LendMap(flowTables, e),
	}
	return c
}

// Produce stages the payload under path in the node-local staging area and
// publishes its metadata globally. The producer never blocks on any
// consumer. Annotations: dyad_produce{dyad_prod_write, dyad_commit}.
//
// A failed staging write (the node's device died under fault injection)
// surfaces as an error wrapping faults.ErrDeviceFailed; the frame is then
// not committed, so consumers never see metadata for data that was lost.
func (c *Client) Produce(p *sim.Proc, path string, pl vfs.Payload) error {
	path = vfs.Clean(path)
	pStart := p.Now()
	// The whole produce call is data movement in the paper's decomposition
	// (the producer never waits on consumers), so one Movement region covers
	// it; component detail (ssd, kvs, net) nests inside.
	defer p.Region("dyad", "dyad_produce", trace.ClassMovement).End(pl.Size(), path)

	write := p.Phase("dyad_prod_write")
	var werr error
	c.broker.locks.WithExclusive(p, path, func() {
		werr = c.broker.staging.WriteFile(p, path, pl)
	})
	write.End()
	if werr != nil {
		return fmt.Errorf("dyad: produce %s: %w", path, werr)
	}

	if fb := c.fallbackFS(); fb != nil {
		// Shared-filesystem mirror for degraded consumers (opt-in; adds the
		// mirror's full write cost to the production path).
		if err := fb.WriteFile(p, path, pl); err != nil {
			return fmt.Errorf("dyad: produce mirror %s: %w", path, err)
		}
	}

	// Global metadata management: the extra production-side cost the paper
	// measures as DYAD's ~1.4x production overhead versus raw XFS.
	commit := p.Phase("dyad_commit")
	c.sys.kvs.Commit(p, c.broker.node, path, encodeMeta(meta{owner: c.broker.node.ID, size: pl.Size()}))
	c.sys.Produced++
	commit.End()
	c.sys.produceLat.Observe(p.Now() - pStart)
	return nil
}

// Consume returns the payload published under path, blocking until it has
// been produced. The returned handle aliases the producer's buffer — every
// hop (staging, broker, cache, consumer) shares one copy. Synchronization
// is adaptive:
//
//   - First touch of a flow: loosely-coupled KVS watch (consumer waits,
//     producer unaffected) — region dyad_fetch.
//   - Flow already synced: cheap KVS lookup plus file-lock check — still
//     dyad_fetch, but microseconds.
//
// Remote data moves via dyad_get_data (broker page-cache read + fabric
// transfer) into the local RAM cache (dyad_cons_store) and is then read
// back (read_single_buf).
//
// Under fault injection the remote path survives broker crashes: fetch
// requests time out (FetchTimeout), are retried under FetchRetry, and then
// degrade to a direct read of the producer's staging area or the shared
// fallback mirror. An error is returned only when every path is exhausted;
// it wraps faults.ErrExhausted plus the final cause.
func (c *Client) Consume(p *sim.Proc, path string) (vfs.Payload, error) {
	path = vfs.Clean(path)
	defer p.Phase("dyad_consume").End()

	flow := flowOf(path)

	// --- Synchronization (dyad_fetch) ---
	fetchStart := p.Now()
	fetch := p.Region("dyad", "dyad_fetch", trace.ClassIdle)
	var m meta
	if c.sys.params.NoAdaptiveSync {
		// Ablation: always use the loosely-coupled watch protocol.
		wait := p.Phase("dyad_kvs_wait")
		m = decodeMeta(c.sys.kvs.WatchWait(p, c.broker.node, path))
		wait.End()
	} else if !c.flowSynced[flow] {
		// Loose first-touch synchronization: the blocking KVS watch gets
		// its own region so analyses can split the one-time pipeline-fill
		// wait from steady-state KVS load.
		wait := p.Phase("dyad_kvs_wait")
		m = decodeMeta(c.sys.kvs.WaitFor(p, c.broker.node, path))
		wait.End()
		c.flowSynced[flow] = true
	} else {
		raw, err := c.sys.kvs.Lookup(p, c.broker.node, path)
		if err != nil {
			// Producer fell behind the overlap: fall back to the loose
			// protocol for this file.
			wait := p.Phase("dyad_kvs_wait")
			raw = c.sys.kvs.WaitFor(p, c.broker.node, path)
			wait.End()
		}
		m = decodeMeta(raw)
	}
	idle := fetch.End(0, path)
	p.CritHop(path, "sync_wait", fetchStart, 0)
	p.CritDepend(path)
	// Paper decomposition: the metadata fetch is idle time, everything
	// after it — client overhead, remote pull, cache store, local read — is
	// data movement, one region of each class; the second stays out of the
	// call-path profile, whose phases below break the movement down.
	defer p.Span("dyad", "dyad_xfer", trace.ClassMovement).End(0, path)
	c.sys.fetchLat.Observe(idle)

	// Client-library path resolution and cache management (movement
	// overhead of the middleware versus a raw filesystem call).
	p.Sleep(c.sys.params.ClientOverhead)

	local := m.owner == c.broker.node.ID

	var data vfs.Payload
	if !local {
		// --- Remote transfer (dyad_get_data) ---
		get := p.Phase("dyad_get_data")
		owner := c.sys.brokers[m.owner]
		if owner == nil {
			get.End()
			return vfs.Payload{}, fmt.Errorf("dyad: consume %s: no broker on node %d", path, m.owner)
		}
		got, err := c.fetchRemote(p, owner, path)
		if err != nil {
			get.End()
			return vfs.Payload{}, err
		}
		data = got
		c.sys.Fetched++
		get.End()

		// --- Local cache store (dyad_cons_store) ---
		store := p.Phase("dyad_cons_store")
		sStart := p.Now()
		stored := false
		var serr error
		if c.broker.cacheCap.TryReserve(path, data.Size()) {
			// Admission check first (true when capacity is off): a refused
			// frame skips the store cost entirely and the read below serves
			// the in-flight copy uncached (a counted cache bypass).
			c.broker.locks.WithExclusive(p, path, func() {
				serr = c.broker.cacheStore(p, data.Size())
				if serr == nil {
					c.broker.cache.Put(path, data)
					if cc := c.broker.cacheCap; cc != nil && cc.State(path) != capacity.StateResident {
						// A concurrent admission evicted this entry during the
						// store's device wait; keep the cache and the budget
						// agreeing on what is resident.
						c.broker.cache.Remove(path)
					}
				} else if c.broker.cacheCap != nil {
					c.broker.cacheCap.Remove(path) // roll back the admission
				}
			})
			stored = serr == nil
		}
		store.End()
		if stored {
			p.CritHop(path, "cache_store", sStart, data.Size())
		}
		if serr != nil {
			// Cache store failed (device gone under the burst-buffer
			// ablation): keep going with the in-flight copy; the read
			// below serves it without a local store.
			c.sys.Recovery.DegradedReads++
			c.sys.Recovery.DegradedBytes += data.Size()
			return data, nil
		}
	}

	// --- POSIX read from the node-local copy (read_single_buf) ---
	rStart := p.Now()
	read := p.Phase("read_single_buf")
	var rerr error
	c.broker.locks.WithShared(p, path, func() {
		var got vfs.Payload
		var ok bool
		if local {
			got, ok = c.broker.stagingGet(path)
			if ok {
				c.sys.StagingReads++
			} else if c.broker.stagingCap.State(path) != capacity.StateUnknown {
				// Produced, then evicted under capacity pressure before this
				// consumer got to it: spilled frames degrade to the mirror
				// below, dropped ones are gone.
				rerr = vfs.PathError("dyad read", path, capacity.ErrEvicted)
				return
			}
		} else {
			got, ok = c.broker.cache.Get(path)
			if ok {
				c.sys.CacheHits++
				c.broker.cacheCap.MarkConsumed(path)
			} else {
				// The local broker crashed between store and read and lost
				// its RAM cache (or admission was refused); serve the
				// in-flight copy.
				c.sys.CacheMisses++
				got, ok = data, true
			}
		}
		if !ok {
			rerr = vfs.PathError("dyad read", path, vfs.ErrNotExist)
			return
		}
		if err := c.broker.cachedRead(p, got.Size()); err != nil {
			rerr = err
			return
		}
		if local {
			c.broker.stagingCap.MarkConsumed(path)
		}
		data = got
	})
	read.End()
	if rerr != nil {
		if fb := c.fallbackFS(); fb != nil && (errors.Is(rerr, faults.ErrDeviceFailed) || errors.Is(rerr, capacity.ErrEvicted)) {
			// Local copy unreadable (device failed) or evicted-but-spilled:
			// degrade to the shared mirror.
			got, ferr := fb.ReadFile(p, path)
			if ferr == nil {
				c.sys.Recovery.DegradedReads++
				c.sys.Recovery.DegradedBytes += got.Size()
				return got, nil
			}
			rerr = fmt.Errorf("%w (fallback: %v)", rerr, ferr)
		}
		return vfs.Payload{}, fmt.Errorf("dyad: consume %s: %w: %w", path, faults.ErrExhausted, rerr)
	}
	p.CritHop(path, "read", rStart, data.Size())
	return data, nil
}

// fetchRemote pulls path from the owner's broker, surviving broker crashes.
// Requests against a down broker cost the fetch timeout and are retried
// under the backoff policy; exhausted retries degrade to fetchDegraded.
func (c *Client) fetchRemote(p *sim.Proc, owner *Broker, path string) (vfs.Payload, error) {
	params := &c.sys.params
	c.sys.InflightFetches++
	defer func() { c.sys.InflightFetches-- }()
	for attempt := 0; ; attempt++ {
		// Request message to the owner broker.
		c.sys.cl.Transfer(p, c.broker.node, owner.node, 192)
		if !owner.Down() {
			break
		}
		c.sys.Recovery.Timeouts++
		c.sys.Recovery.RecoveryTime += params.FetchTimeout
		p.Sleep(params.FetchTimeout)
		p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "dyad", Name: "fetch_timeout",
			Class: trace.ClassRecovery, Start: p.Now() - params.FetchTimeout, Dur: params.FetchTimeout, Attr: path})
		if attempt >= params.FetchRetry.Max {
			cause := fmt.Errorf("dyad: broker %s: %w: %w", owner.node.Name(), faults.ErrTimeout, faults.ErrBrokerDown)
			return c.fetchDegraded(p, owner, path, cause)
		}
		c.sys.Recovery.Retries++
		delay := params.FetchRetry.Delay(attempt)
		c.sys.Recovery.RecoveryTime += delay
		p.Sleep(delay)
		p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "dyad", Name: "fetch_backoff",
			Class: trace.ClassRecovery, Start: p.Now() - delay, Dur: delay, Attr: path})
	}

	// Broker-side read under a shared lock, then an RDMA-style pull back
	// over the fabric (or the store-and-forward relay under the ablation).
	var data vfs.Payload
	var rerr error
	owner.srv.Use(p, params.BrokerService)
	owner.locks.WithShared(p, path, func() {
		got, ok := owner.stagingGet(path)
		if !ok {
			if owner.stagingCap.State(path) != capacity.StateUnknown {
				// Evicted under capacity pressure on the producer's node.
				rerr = vfs.PathError("dyad fetch", path, capacity.ErrEvicted)
				return
			}
			rerr = vfs.PathError("dyad fetch", path, vfs.ErrNotExist)
			return
		}
		c.sys.StagingReads++
		rerr = owner.cachedRead(p, got.Size())
		if rerr == nil {
			owner.stagingCap.MarkConsumed(path)
		}
		data = got
	})
	if rerr != nil {
		if errors.Is(rerr, faults.ErrDeviceFailed) || errors.Is(rerr, capacity.ErrEvicted) {
			// Broker answered but its device is gone (the staging copy is
			// unreadable too) or the frame was evicted: straight to the
			// shared mirror.
			return c.fetchDegraded(p, owner, path, rerr)
		}
		return vfs.Payload{}, fmt.Errorf("dyad: fetch %s: %w", path, rerr)
	}
	tStart := p.Now()
	if params.NoDirectTransfer {
		// Ablation: store-and-forward through the management node
		// instead of a direct producer->consumer pull.
		relay := c.sys.kvs.Node()
		c.sys.cl.Transfer(p, owner.node, relay, data.Size())
		c.sys.cl.Transfer(p, relay, c.broker.node, data.Size())
	} else {
		c.sys.cl.Transfer(p, owner.node, c.broker.node, data.Size())
	}
	p.CritHop(path, "transfer", tStart, data.Size())
	return data, nil
}

// fetchDegraded is the graceful-degradation path: the owner's broker is
// unreachable (or its data unreadable through it), so pull the file straight
// from the producer's staging area — the NVMe survives broker crashes — and
// fall back to the shared-filesystem mirror when the device itself is gone.
func (c *Client) fetchDegraded(p *sim.Proc, owner *Broker, path string, cause error) (vfs.Payload, error) {
	if got, ok := owner.stagingGet(path); ok && !errors.Is(cause, faults.ErrDeviceFailed) {
		start := p.Now()
		if _, err := owner.node.SSD.Read(p, got.Size()); err == nil {
			owner.stagingCap.MarkConsumed(path)
			c.sys.cl.Transfer(p, owner.node, c.broker.node, got.Size())
			c.sys.StagingReads++
			c.sys.Recovery.DegradedReads++
			c.sys.Recovery.DegradedBytes += got.Size()
			p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "dyad", Name: "degraded_read",
				Class: trace.ClassRecovery, Start: start, Dur: p.Now() - start, Bytes: got.Size(), Attr: path})
			return got, nil
		}
	}
	if fb := c.fallbackFS(); fb != nil {
		start := p.Now()
		got, err := fb.ReadFile(p, path)
		if err == nil {
			c.sys.Recovery.DegradedReads++
			c.sys.Recovery.DegradedBytes += got.Size()
			p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "dyad", Name: "degraded_read",
				Class: trace.ClassRecovery, Start: start, Dur: p.Now() - start, Bytes: got.Size(), Attr: "mirror"})
			return got, nil
		}
		cause = fmt.Errorf("%w (fallback: %v)", cause, err)
	}
	return vfs.Payload{}, fmt.Errorf("dyad: fetch %s: %w: %w", path, faults.ErrExhausted, cause)
}

// flowOf groups per-frame paths into a producer flow so the sync protocol
// switch is per producer-consumer pair, not per file: /dir/frame17.pb and
// /dir/frame18.pb belong to flow /dir.
func flowOf(path string) string {
	for i := len(path) - 1; i > 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "/"
}
