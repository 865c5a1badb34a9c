// Package capacity models finite burst-buffer budgets for the node-local
// staging layers (DYAD's NVMe staging area and RAM consumer cache, the XFS
// staging filesystem). The real systems the paper studies stage frames on
// storage that is very much finite — Tessier et al. model DataWarp
// burst-buffer capacity as a first-class provisionable resource — and the
// regime where DYAD's advantage erodes is exactly the one where frames
// overflow node-local storage. This package supplies the bookkeeping:
//
//   - A Store tracks per-node byte budgets. A zero budget means infinite,
//     and a nil *Store is valid and inert (every method is nil-safe at the
//     cost of one nil check), so the capacity-off path keeps the
//     zero-cost-when-off contract of the tracing and metrics layers.
//   - Deterministic eviction policies behind the Evictor interface: "lru"
//     (least-recently-accessed victim) and "consumed-drop" (oldest
//     already-consumed frame; never sacrifices unread data, producing
//     back-pressure instead).
//   - Spill accounting: an evicted-but-unconsumed frame whose deployment
//     has a shared-filesystem mirror (DYAD's LustreFallback write-through)
//     is "spilled" — the mirror copy survives and later fetches degrade to
//     it; without a mirror the frame is dropped and later fetches fail with
//     ErrEvicted.
//   - Producer back-pressure: a write that cannot make space (no evictable
//     victim, but the frame would fit) blocks on a sim.Signal until
//     consumption or eviction frees bytes, accounted as ClassBackpressure
//     span time. A frame larger than the whole budget fails fast with
//     ErrNoSpace — never a hang (runs with finite capacity arm the engine
//     watchdog).
//
// Determinism contract: all Store state is mutated inside serialized event
// execution, victims come from evictor-owned lists (never map iteration),
// and stall wake-ups broadcast in waiter arrival order — a run with finite
// capacity is byte-identical across worker counts.
package capacity

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Sentinel errors of the capacity layer. Backends wrap them with context so
// call sites test failure classes with errors.Is, mirroring the faults
// package vocabulary.
var (
	// ErrNoSpace marks a write that can never fit: the payload alone
	// exceeds the store's whole byte budget. It surfaces instead of a
	// blocked-forever producer.
	ErrNoSpace = errors.New("capacity: no space")
	// ErrEvicted marks a read of a frame that was evicted from its staging
	// store. If the frame was spilled to a shared mirror the caller can
	// degrade to it; otherwise the data is gone.
	ErrEvicted = errors.New("capacity: frame evicted")
)

// State classifies what a store knows about a path.
type State uint8

const (
	// StateUnknown: the store never held the path (or forgot it via Remove).
	StateUnknown State = iota
	// StateResident: the payload is in the store.
	StateResident
	// StateSpilled: evicted, but a shared-mirror copy survives.
	StateSpilled
	// StateDropped: evicted with no surviving copy.
	StateDropped
)

// String returns the state name used in errors and tests.
func (s State) String() string {
	switch s {
	case StateResident:
		return "resident"
	case StateSpilled:
		return "spilled"
	case StateDropped:
		return "dropped"
	}
	return "unknown"
}

// Eviction policy names (Spec.Policy).
const (
	// PolicyLRU evicts the least-recently-accessed frame. Consumption
	// counts as an access, so in a streaming workload the victims are the
	// oldest consumed frames first and, under real pressure, the oldest
	// unconsumed in-flight frames — which spill to the mirror or drop.
	PolicyLRU = "lru"
	// PolicyConsumedDrop evicts the oldest already-consumed frame and never
	// sacrifices unread data: when every resident frame is still unconsumed
	// the writer blocks (back-pressure), bounding the producer/consumer
	// in-flight window by the byte budget.
	PolicyConsumedDrop = "consumed-drop"
)

// Entry is one resident frame of a store. The evictor threads entries on an
// intrusive list, so policy bookkeeping allocates nothing beyond the entry.
type Entry struct {
	Path     string
	Size     int64
	Consumed bool

	prev, next *Entry
}

// Evictor is a pluggable, deterministic eviction policy. The store calls
// the hooks on every mutation; Victim picks the next frame to evict (nil
// when the policy refuses — the store then applies back-pressure, or evicts
// unconditionally with forced=true on a shrinking provision).
type Evictor interface {
	// Reset empties the policy state (broker crash wiping a cache).
	Reset()
	// Added records a newly inserted entry.
	Added(e *Entry)
	// Accessed records a read of a resident entry.
	Accessed(e *Entry)
	// Removed unlinks an entry (eviction, unlink, overwrite).
	Removed(e *Entry)
	// Victim returns the next entry to evict, or nil if the policy has no
	// willing victim. With forced set the policy must return some entry
	// whenever one is resident (capacity shrank below occupancy).
	Victim(forced bool) *Entry
}

// NewEvictor returns a fresh evictor for the named policy; the empty string
// defaults to LRU. Unknown names panic — Spec.Validate rejects them before
// any store is built, so reaching the panic is a programming error.
func NewEvictor(policy string) Evictor {
	switch policy {
	case "", PolicyLRU:
		e := &lruEvictor{}
		e.Reset()
		return e
	case PolicyConsumedDrop:
		e := &consumedDropEvictor{}
		e.Reset()
		return e
	}
	panic(fmt.Sprintf("capacity: unknown eviction policy %q", policy))
}

// entryList is an intrusive doubly-linked list with a sentinel root.
type entryList struct{ root Entry }

func (l *entryList) init() { l.root.prev, l.root.next = &l.root, &l.root }

func (l *entryList) pushBack(e *Entry) {
	e.prev, e.next = l.root.prev, &l.root
	l.root.prev.next = e
	l.root.prev = e
}

func (l *entryList) remove(e *Entry) {
	if e.prev == nil { // not linked (defensive; Removed after Victim unlink)
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (l *entryList) front() *Entry {
	if l.root.next == &l.root {
		return nil
	}
	return l.root.next
}

// lruEvictor keeps entries in access order (front = coldest).
type lruEvictor struct{ l entryList }

func (e *lruEvictor) Reset() { e.l.init() }
func (e *lruEvictor) Added(en *Entry) {
	e.l.pushBack(en)
}
func (e *lruEvictor) Accessed(en *Entry) {
	e.l.remove(en)
	e.l.pushBack(en)
}
func (e *lruEvictor) Removed(en *Entry) { e.l.remove(en) }
func (e *lruEvictor) Victim(forced bool) *Entry {
	return e.l.front()
}

// consumedDropEvictor keeps entries in insertion order and volunteers only
// already-consumed frames (scanning from the oldest). Forced eviction takes
// the oldest entry regardless.
type consumedDropEvictor struct{ l entryList }

func (e *consumedDropEvictor) Reset()             { e.l.init() }
func (e *consumedDropEvictor) Added(en *Entry)    { e.l.pushBack(en) }
func (e *consumedDropEvictor) Accessed(en *Entry) {}
func (e *consumedDropEvictor) Removed(en *Entry)  { e.l.remove(en) }
func (e *consumedDropEvictor) Victim(forced bool) *Entry {
	for en := e.l.root.next; en != &e.l.root; en = en.next {
		if en.Consumed {
			return en
		}
	}
	if forced {
		return e.l.front()
	}
	return nil
}

// Store is one finite-capacity staging store (one node's NVMe staging area
// or RAM cache). A nil *Store is valid and inert: every method returns
// immediately after one nil check, so backends instrument their hot paths
// unconditionally and the capacity-off timeline is untouched.
//
// Paths are used as given. Each backend cleans a path once, on the first
// line of its public entry point (the xfs and lustre vfs.FS methods, dyad's
// Produce and Consume), and passes that one string here, so store keys
// match the keys of the trees they guard.
type Store struct {
	name     string
	cache    bool // cache stores count eviction activity separately and keep no tombstones
	capBytes int64
	used     int64
	entries  map[string]*Entry
	tomb     map[string]State
	ev       Evictor
	// onEvict removes the victim from the backing tree and reports whether
	// a shared-mirror copy survives (the frame "spilled" instead of
	// dropping).
	onEvict func(path string, size int64, consumed bool) bool
	waiters sim.Signal
	met     *Metrics
}

// The engines' free lists of the stores' entry and tombstone tables.
var (
	entryTables = sim.NewFreeList[map[string]*Entry]()
	tombTables  = sim.NewFreeList[map[string]State]()
)

// NewStore builds a store for e's current run, named for errors and
// traces (e.g. "node0/staging"). Its entry and tombstone tables are lent
// by e (sim.LendMap): the store is valid until e's next Reset. capBytes
// <= 0 means infinite (the store still tracks occupancy, and a later
// Resize can make it finite). met may be nil (a private record is kept).
// onEvict may be nil (nothing to remove).
func NewStore(e *sim.Engine, name string, capBytes int64, ev Evictor, cache bool, met *Metrics, onEvict func(path string, size int64, consumed bool) bool) *Store {
	if capBytes < 0 {
		capBytes = 0
	}
	if met == nil {
		met = &Metrics{}
	}
	return &Store{
		name:     name,
		cache:    cache,
		capBytes: capBytes,
		entries:  sim.LendMap(entryTables, e),
		tomb:     sim.LendMap(tombTables, e),
		ev:       ev,
		onEvict:  onEvict,
		met:      met,
	}
}

// Used returns the resident byte occupancy (0 on a nil store).
func (s *Store) Used() int64 {
	if s == nil {
		return 0
	}
	return s.used
}

// Reserve claims n bytes for path before the backend writes it, evicting
// under the policy until the frame fits. When the policy has no victim but
// the frame would fit, the caller blocks (producer back-pressure) until
// consumption, eviction, or a grown provision frees space — the stall is
// accounted as a ClassBackpressure span. A frame larger than the whole
// budget fails with a wrapped ErrNoSpace. Nil-safe no-op when capacity is
// off.
func (s *Store) Reserve(p *sim.Proc, path string, n int64) error {
	if s == nil {
		return nil
	}
	if e, ok := s.entries[path]; ok {
		// Overwrite: the old payload's bytes come back first.
		s.release(e)
	}
	delete(s.tomb, path) // a rewritten path is resident again
	for s.capBytes > 0 && s.used+n > s.capBytes {
		if n > s.capBytes {
			s.met.NoSpace++
			return fmt.Errorf("capacity: %s: %s (%d B) exceeds the %d B budget: %w",
				s.name, path, n, s.capBytes, ErrNoSpace)
		}
		if s.evictOne(p, false) {
			continue
		}
		s.stall(p)
	}
	s.insert(path, n)
	return nil
}

// TryReserve is the non-blocking admission check for cache stores: it
// claims n bytes for path if eviction alone can make room, and reports
// false (a cache bypass — the caller serves its in-flight copy uncached)
// when it cannot. Nil-safe: always admits when capacity is off.
func (s *Store) TryReserve(path string, n int64) bool {
	if s == nil {
		return true
	}
	if e, ok := s.entries[path]; ok {
		s.release(e)
	}
	delete(s.tomb, path)
	for s.capBytes > 0 && s.used+n > s.capBytes {
		if n > s.capBytes || !s.evictOne(nil, false) {
			s.met.CacheBypasses++
			return false
		}
	}
	s.insert(path, n)
	return true
}

// MarkConsumed records that path's frame has been read: the entry counts as
// accessed (LRU refresh) and becomes evictable under consumed-drop; the
// first consumption wakes any back-pressured writer. Nil-safe.
func (s *Store) MarkConsumed(path string) {
	if s == nil {
		return
	}
	e, ok := s.entries[path]
	if !ok {
		return
	}
	s.ev.Accessed(e)
	if !e.Consumed {
		e.Consumed = true
		s.waiters.Broadcast()
	}
}

// State reports what the store knows about path: resident, spilled (mirror
// copy survives), dropped, or unknown. StateUnknown on a nil store.
func (s *Store) State(path string) State {
	if s == nil {
		return StateUnknown
	}
	if _, ok := s.entries[path]; ok {
		return StateResident
	}
	return s.tomb[path]
}

// Remove releases path's reservation and forgets its history (unlink, or a
// rollback after a failed backend write). Freed bytes wake back-pressured
// writers. Nil-safe.
func (s *Store) Remove(path string) {
	if s == nil {
		return
	}
	if e, ok := s.entries[path]; ok {
		s.release(e)
		s.waiters.Broadcast()
	}
	delete(s.tomb, path)
}

// Resize changes the byte budget at virtual runtime (dynamic provisioning).
// Shrinking below the current occupancy forces evictions — consumed frames
// first under any policy, then unconsumed ones (which spill or drop) —
// until the occupancy fits. Growing (or going infinite) wakes
// back-pressured writers. Nil-safe.
func (s *Store) Resize(capBytes int64) {
	if s == nil {
		return
	}
	if capBytes < 0 {
		capBytes = 0
	}
	grew := capBytes == 0 || (s.capBytes > 0 && capBytes > s.capBytes)
	s.capBytes = capBytes
	if capBytes > 0 {
		for s.used > capBytes && s.evictOne(nil, true) {
		}
	}
	if grew {
		s.waiters.Broadcast()
	}
}

// Clear wipes the store (a broker crash losing its RAM cache): every entry
// and tombstone is forgotten, occupancy returns to zero, and any blocked
// writer wakes. Nil-safe.
func (s *Store) Clear() {
	if s == nil {
		return
	}
	clear(s.entries)
	clear(s.tomb)
	s.used = 0
	s.ev.Reset()
	s.waiters.Broadcast()
}

// insert adds a fresh resident entry.
func (s *Store) insert(path string, n int64) {
	e := &Entry{Path: path, Size: n}
	s.entries[path] = e
	s.used += n
	s.ev.Added(e)
}

// release drops an entry from residency without recording an eviction.
func (s *Store) release(e *Entry) {
	s.used -= e.Size
	s.ev.Removed(e)
	delete(s.entries, e.Path)
}

// evictOne evicts the policy's next victim, removing it from the backing
// tree and recording spill/drop accounting. Returns false when the policy
// refuses (and forced is not set). p, when non-nil, stamps an eviction
// detail span on the caller's timeline (resize-driven evictions have no
// process context and emit none).
func (s *Store) evictOne(p *sim.Proc, forced bool) bool {
	v := s.ev.Victim(forced)
	if v == nil {
		return false
	}
	s.release(v)
	spilled := false
	if s.onEvict != nil {
		spilled = s.onEvict(v.Path, v.Size, v.Consumed)
	}
	if s.cache {
		// Cache evictions lose only a copy — the frame is still in its
		// producer's staging area — so they keep separate counters and no
		// tombstones (a later miss falls back to the in-flight copy).
		s.met.CacheEvictions++
	} else {
		s.met.Evictions++
		s.met.EvictedBytes += v.Size
		if forced {
			s.met.ForcedEvictions++
		}
		st := StateDropped
		if spilled {
			st = StateSpilled
		}
		s.tomb[v.Path] = st
		if !v.Consumed {
			if spilled {
				s.met.SpilledFrames++
				s.met.SpilledBytes += v.Size
			} else {
				s.met.DroppedFrames++
				s.met.DroppedBytes += v.Size
			}
		}
	}
	if p != nil {
		p.Rec().Emit(trace.Span{Proc: p.Name(), Component: "capacity", Name: "evict",
			Class: trace.ClassDetail, Start: p.Now(), Bytes: v.Size, Attr: v.Path})
		hop := "evict"
		if spilled {
			hop = "spill"
		}
		p.CritHop(v.Path, hop, p.Now(), v.Size)
	}
	return true
}

// stall blocks the writer until consumption/eviction/provisioning frees
// space, accounting the wait as back-pressure time.
func (s *Store) stall(p *sim.Proc) {
	s.met.Stalls++
	r := p.Span("capacity", "backpressure_wait", trace.ClassBackpressure)
	s.waiters.Wait(p)
	s.met.StallNanos += int64(r.End(0, s.name))
}

// Metrics is the per-run capacity-pressure record, shared by every store of
// a run. All counters are bumped inside serialized event execution, so the
// record is deterministic.
type Metrics struct {
	// Evictions / EvictedBytes count staging-store evictions of any kind.
	Evictions    int64
	EvictedBytes int64
	// SpilledFrames / SpilledBytes count evicted-but-unconsumed frames with
	// a surviving shared-mirror copy (later fetches degrade to the mirror).
	SpilledFrames int64
	SpilledBytes  int64
	// DroppedFrames / DroppedBytes count evicted-but-unconsumed frames with
	// no surviving copy (later fetches fail with ErrEvicted).
	DroppedFrames int64
	DroppedBytes  int64
	// ForcedEvictions counts evictions forced by a shrinking provision.
	ForcedEvictions int64
	// CacheEvictions counts consumer RAM-cache evictions (harmless: the
	// staging copy survives).
	CacheEvictions int64
	// CacheBypasses counts cache admissions refused for lack of space (the
	// consumer served its in-flight copy uncached).
	CacheBypasses int64
	// Stalls / StallNanos count producer back-pressure waits and the
	// virtual time they cost.
	Stalls     int64
	StallNanos int64
	// NoSpace counts writes rejected with ErrNoSpace.
	NoSpace int64
}

// Zero reports whether no capacity pressure was recorded.
func (m Metrics) Zero() bool { return m == Metrics{} }

// StallTime returns the accumulated back-pressure wait as a duration.
func (m Metrics) StallTime() time.Duration { return time.Duration(m.StallNanos) }

// String renders the record compactly for reports and golden fixtures.
func (m Metrics) String() string {
	return fmt.Sprintf("evicted=%d/%dB spilled=%d/%dB dropped=%d/%dB forced=%d cache_evicted=%d bypasses=%d stalls=%d/%v nospace=%d",
		m.Evictions, m.EvictedBytes, m.SpilledFrames, m.SpilledBytes,
		m.DroppedFrames, m.DroppedBytes, m.ForcedEvictions,
		m.CacheEvictions, m.CacheBypasses, m.Stalls, m.StallTime(), m.NoSpace)
}

// Spec configures finite burst-buffer capacity for a run (Config.Capacity).
// The zero value (and a nil pointer) keeps every budget infinite and
// changes nothing: the capacity-off timeline is byte-identical to a build
// without this package.
type Spec struct {
	// StagingBytes is the per-node staging budget (DYAD NVMe staging area,
	// or the XFS filesystem). 0 = infinite.
	StagingBytes int64
	// CacheBytes is the per-node DYAD consumer RAM-cache budget.
	// 0 = infinite. DYAD-only.
	CacheBytes int64
	// Policy selects the eviction policy: "lru" (default when empty) or
	// "consumed-drop".
	Policy string
	// Plan schedules dynamic provisioning: at each event's virtual time the
	// budgets are reset to its values (0 = infinite), shrinking below
	// occupancy forcing evictions. Events are applied in slice order.
	Plan []Provision
}

// Provision is one scheduled reprovisioning of the burst-buffer allocation.
type Provision struct {
	// At is the virtual time the new budgets take effect.
	At time.Duration
	// StagingBytes / CacheBytes are the new per-node budgets (0 = infinite).
	StagingBytes int64
	CacheBytes   int64
}

// Enabled reports whether the spec constrains anything (nil-safe): a
// finite budget now, or a provisioning plan that could impose one later.
func (s *Spec) Enabled() bool {
	return s != nil && (s.StagingBytes > 0 || s.CacheBytes > 0 || len(s.Plan) > 0)
}

// Validate reports specification errors. horizon, when > 0, is the run's
// nominal production span; plan events scheduled beyond it can never affect
// production and are rejected.
func (s *Spec) Validate(horizon time.Duration) error {
	if s == nil {
		return nil
	}
	if s.StagingBytes < 0 {
		return fmt.Errorf("capacity: StagingBytes %d < 0", s.StagingBytes)
	}
	if s.CacheBytes < 0 {
		return fmt.Errorf("capacity: CacheBytes %d < 0", s.CacheBytes)
	}
	switch s.Policy {
	case "", PolicyLRU, PolicyConsumedDrop:
	default:
		return fmt.Errorf("capacity: unknown eviction policy %q (want %q or %q)",
			s.Policy, PolicyLRU, PolicyConsumedDrop)
	}
	for i, ev := range s.Plan {
		if ev.At < 0 {
			return fmt.Errorf("capacity: plan event %d at %v < 0", i, ev.At)
		}
		if horizon > 0 && ev.At > horizon {
			return fmt.Errorf("capacity: plan event %d at %v beyond the run horizon %v", i, ev.At, horizon)
		}
		if ev.StagingBytes < 0 || ev.CacheBytes < 0 {
			return fmt.Errorf("capacity: plan event %d has negative budget (%d, %d)",
				i, ev.StagingBytes, ev.CacheBytes)
		}
	}
	return nil
}
