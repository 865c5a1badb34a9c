package capacity

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// evictLog records onEvict callbacks so tests can assert victim order.
type evictLog struct {
	paths []string
	spill bool // value returned to the store (mirror present?)
}

func (l *evictLog) hook(path string, size int64, consumed bool) bool {
	l.paths = append(l.paths, path)
	return l.spill
}

func TestLRUEvictionOrder(t *testing.T) {
	log := &evictLog{spill: true}
	s := NewStore(sim.NewEngine(1), "test/staging", 30, NewEvictor(PolicyLRU), false, nil, log.hook)

	for _, p := range []string{"a", "b", "c"} {
		if err := s.Reserve(nil, p, 10); err != nil {
			t.Fatalf("Reserve(%s): %v", p, err)
		}
	}
	if s.Used() != 30 || len(s.entries) != 3 {
		t.Fatalf("Used=%d Len=%d, want 30/3", s.Used(), len(s.entries))
	}

	// Refresh "a": the coldest entry is now "b".
	s.MarkConsumed("a")
	if err := s.Reserve(nil, "d", 10); err != nil {
		t.Fatalf("Reserve(d): %v", err)
	}
	if err := s.Reserve(nil, "e", 10); err != nil {
		t.Fatalf("Reserve(e): %v", err)
	}
	want := []string{"b", "c"}
	if len(log.paths) != len(want) || log.paths[0] != want[0] || log.paths[1] != want[1] {
		t.Fatalf("eviction order %v, want %v", log.paths, want)
	}
	if got := s.State("b"); got != StateSpilled {
		t.Fatalf("State(b) = %v, want spilled", got)
	}
	if got := s.State("a"); got != StateResident {
		t.Fatalf("State(a) = %v, want resident", got)
	}
}

func TestConsumedDropVictims(t *testing.T) {
	log := &evictLog{}
	s := NewStore(sim.NewEngine(1), "test/staging", 30, NewEvictor(PolicyConsumedDrop), false, nil, log.hook)

	for _, p := range []string{"a", "b", "c"} {
		if err := s.Reserve(nil, p, 10); err != nil {
			t.Fatalf("Reserve(%s): %v", p, err)
		}
	}
	// Consume "b" only: the policy must pick it over the older unconsumed "a".
	s.MarkConsumed("b")
	if err := s.Reserve(nil, "d", 10); err != nil {
		t.Fatalf("Reserve(d): %v", err)
	}
	if len(log.paths) != 1 || log.paths[0] != "b" {
		t.Fatalf("victims %v, want [b]", log.paths)
	}
	// No consumed frame left: the non-blocking TryReserve must refuse.
	if s.TryReserve("e", 10) {
		t.Fatal("TryReserve admitted with no consumed victim")
	}
	// Forced eviction (shrink) takes the oldest entry regardless.
	s.Resize(20)
	if len(log.paths) != 2 || log.paths[1] != "a" {
		t.Fatalf("victims after shrink %v, want [b a]", log.paths)
	}
	if s.State("a") != StateDropped {
		t.Fatalf("State(a) = %v, want dropped (no mirror)", s.State("a"))
	}
	if s.met.ForcedEvictions != 1 || s.met.DroppedFrames != 1 {
		t.Fatalf("metrics %+v, want 1 forced / 1 dropped", *s.met)
	}
}

func TestNoSpace(t *testing.T) {
	s := NewStore(sim.NewEngine(1), "node0/staging", 16, NewEvictor(PolicyLRU), false, nil, nil)
	err := s.Reserve(nil, "big", 17)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Reserve over budget: err = %v, want ErrNoSpace", err)
	}
	if !strings.Contains(err.Error(), "node0/staging") || !strings.Contains(err.Error(), "17 B") {
		t.Fatalf("ErrNoSpace message lacks context: %q", err)
	}
	if s.met.NoSpace != 1 {
		t.Fatalf("NoSpace counter = %d, want 1", s.met.NoSpace)
	}
	if s.TryReserve("big", 17) {
		t.Fatal("TryReserve admitted an over-budget frame")
	}
}

func TestOverwriteReleasesOldBytes(t *testing.T) {
	s := NewStore(sim.NewEngine(1), "t", 20, NewEvictor(PolicyLRU), false, nil, nil)
	if err := s.Reserve(nil, "a", 15); err != nil {
		t.Fatal(err)
	}
	// Rewriting the same path must release the old payload first, not evict.
	if err := s.Reserve(nil, "a", 20); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if s.Used() != 20 || len(s.entries) != 1 || s.met.Evictions != 0 {
		t.Fatalf("Used=%d Len=%d Evictions=%d after overwrite", s.Used(), len(s.entries), s.met.Evictions)
	}
}

func TestRemoveAndClear(t *testing.T) {
	log := &evictLog{}
	s := NewStore(sim.NewEngine(1), "t", 20, NewEvictor(PolicyLRU), false, nil, log.hook)
	if err := s.Reserve(nil, "a", 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Reserve(nil, "b", 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Reserve(nil, "c", 10); err != nil { // evicts "a" -> tombstone
		t.Fatal(err)
	}
	if s.State("a") != StateDropped {
		t.Fatalf("State(a) = %v, want dropped", s.State("a"))
	}
	s.Remove("a") // forget the history
	if s.State("a") != StateUnknown {
		t.Fatalf("State(a) after Remove = %v, want unknown", s.State("a"))
	}
	s.Remove("b")
	if s.Used() != 10 || len(s.entries) != 1 {
		t.Fatalf("Used=%d Len=%d after Remove(b)", s.Used(), len(s.entries))
	}
	s.Clear()
	if s.Used() != 0 || len(s.entries) != 0 || s.State("c") != StateUnknown {
		t.Fatalf("Clear left Used=%d Len=%d State(c)=%v", s.Used(), len(s.entries), s.State("c"))
	}
}

func TestResize(t *testing.T) {
	s := NewStore(sim.NewEngine(1), "t", 0, NewEvictor(PolicyLRU), false, nil, nil)
	for _, p := range []string{"a", "b", "c", "d"} {
		if err := s.Reserve(nil, p, 10); err != nil {
			t.Fatal(err)
		}
	}
	// Infinite budget tracked 40 B; shrinking to 25 must force out a and b.
	s.Resize(25)
	if s.Used() != 20 || len(s.entries) != 2 {
		t.Fatalf("Used=%d Len=%d after shrink, want 20/2", s.Used(), len(s.entries))
	}
	if s.met.ForcedEvictions != 2 {
		t.Fatalf("ForcedEvictions = %d, want 2", s.met.ForcedEvictions)
	}
	if s.State("a") != StateDropped || s.State("c") != StateResident {
		t.Fatalf("states a=%v c=%v after shrink", s.State("a"), s.State("c"))
	}
	s.Resize(0) // back to infinite
	if s.capBytes != 0 {
		t.Fatalf("Cap = %d after Resize(0)", s.capBytes)
	}
}

func TestCacheStoreAccounting(t *testing.T) {
	log := &evictLog{}
	s := NewStore(sim.NewEngine(1), "node1/cache", 20, NewEvictor(PolicyLRU), true, nil, log.hook)
	if !s.TryReserve("a", 10) || !s.TryReserve("b", 10) {
		t.Fatal("TryReserve refused with space available")
	}
	if !s.TryReserve("c", 10) { // evicts "a"
		t.Fatal("TryReserve refused with an evictable victim")
	}
	if s.met.CacheEvictions != 1 || s.met.Evictions != 0 {
		t.Fatalf("metrics %+v, want cache-only eviction", *s.met)
	}
	// Cache stores keep no tombstones: an evicted path reads as unknown.
	if s.State("a") != StateUnknown {
		t.Fatalf("State(a) = %v, want unknown (no cache tombstones)", s.State("a"))
	}
	if s.TryReserve("huge", 21) {
		t.Fatal("TryReserve admitted an over-budget frame")
	}
	if s.met.CacheBypasses != 1 {
		t.Fatalf("CacheBypasses = %d, want 1", s.met.CacheBypasses)
	}
}

// TestBackpressure runs a producer/consumer pair against a consumed-drop
// store inside a real engine: the producer must stall exactly until the
// consumer frees space, with the wait accounted in StallNanos.
func TestBackpressure(t *testing.T) {
	eng := sim.NewEngine(1)
	met := &Metrics{}
	s := NewStore(eng, "node0/staging", 20, NewEvictor(PolicyConsumedDrop), false, met, nil)

	var produced []string
	eng.Spawn("producer", func(p *sim.Proc) {
		for _, path := range []string{"f0", "f1", "f2", "f3"} {
			if err := s.Reserve(p, path, 10); err != nil {
				t.Errorf("Reserve(%s): %v", path, err)
				return
			}
			produced = append(produced, path)
			p.Sleep(time.Millisecond)
		}
	})
	eng.Spawn("consumer", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond)
		s.MarkConsumed("f0")
		p.Sleep(50 * time.Millisecond)
		s.MarkConsumed("f1")
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(produced) != 4 {
		t.Fatalf("produced %v, want all 4 frames", produced)
	}
	if met.Stalls != 2 {
		t.Fatalf("Stalls = %d, want 2 (f2 and f3 each waited)", met.Stalls)
	}
	// f2 waited from ~1ms to 50ms, f3 from ~51ms to 100ms: ~98ms total.
	if got := met.StallTime(); got < 90*time.Millisecond || got > 110*time.Millisecond {
		t.Fatalf("StallTime = %v, want ~98ms", got)
	}
	if met.Evictions != 2 { // f0 and f1 evicted once consumed
		t.Fatalf("Evictions = %d, want 2", met.Evictions)
	}
}

func TestNilStoreSafe(t *testing.T) {
	var s *Store
	if err := s.Reserve(nil, "a", 1<<40); err != nil {
		t.Fatalf("nil Reserve: %v", err)
	}
	if !s.TryReserve("a", 1<<40) {
		t.Fatal("nil TryReserve refused")
	}
	s.MarkConsumed("a")
	s.Remove("a")
	s.Resize(10)
	s.Clear()
	if s.Used() != 0 {
		t.Fatal("nil Used not zero")
	}
	if s.State("a") != StateUnknown {
		t.Fatal("nil State not unknown")
	}
}

// TestNilStoreZeroAllocs locks in the zero-cost-when-off contract: every
// nil-store operation on the hot path allocates nothing.
func TestNilStoreZeroAllocs(t *testing.T) {
	var s *Store
	allocs := testing.AllocsPerRun(1000, func() {
		_ = s.Reserve(nil, "frame", 4096)
		s.MarkConsumed("frame")
		_ = s.State("frame")
		s.Remove("frame")
	})
	if allocs != 0 {
		t.Fatalf("nil-store ops allocate %v/op, want 0", allocs)
	}
}

func TestSpecEnabledAndValidate(t *testing.T) {
	var nilSpec *Spec
	if nilSpec.Enabled() {
		t.Fatal("nil spec enabled")
	}
	if err := nilSpec.Validate(time.Hour); err != nil {
		t.Fatalf("nil spec invalid: %v", err)
	}
	if (&Spec{}).Enabled() {
		t.Fatal("zero spec enabled")
	}
	if !(&Spec{StagingBytes: 1}).Enabled() || !(&Spec{CacheBytes: 1}).Enabled() {
		t.Fatal("finite budget not enabled")
	}
	if !(&Spec{Plan: []Provision{{At: time.Second}}}).Enabled() {
		t.Fatal("planned spec not enabled")
	}

	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"negative staging", Spec{StagingBytes: -1}, "StagingBytes -1 < 0"},
		{"negative cache", Spec{CacheBytes: -2}, "CacheBytes -2 < 0"},
		{"unknown policy", Spec{Policy: "mru"}, `unknown eviction policy "mru"`},
		{"negative plan time", Spec{Plan: []Provision{{At: -time.Second}}}, "plan event 0 at -1s < 0"},
		{"plan beyond horizon", Spec{Plan: []Provision{{At: 2 * time.Hour}}}, "beyond the run horizon 1h0m0s"},
		{"negative plan budget", Spec{Plan: []Provision{{StagingBytes: -1}}}, "negative budget"},
	}
	for _, c := range cases {
		err := c.spec.Validate(time.Hour)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	ok := Spec{StagingBytes: 1 << 30, CacheBytes: 1 << 20, Policy: PolicyConsumedDrop,
		Plan: []Provision{{At: time.Minute, StagingBytes: 1 << 20}}}
	if err := ok.Validate(time.Hour); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// Zero horizon skips the bound check (unknown run length).
	if err := ok.Validate(0); err != nil {
		t.Fatalf("valid spec rejected at horizon 0: %v", err)
	}
}

func TestNewEvictorUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEvictor(unknown) did not panic")
		}
	}()
	NewEvictor("fifo")
}

func TestMetricsStringZero(t *testing.T) {
	var m Metrics
	if !m.Zero() {
		t.Fatal("zero Metrics not Zero")
	}
	m = Metrics{Evictions: 2, EvictedBytes: 20, SpilledFrames: 1, SpilledBytes: 10,
		Stalls: 3, StallNanos: int64(time.Second), NoSpace: 1}
	if m.Zero() {
		t.Fatal("populated Metrics Zero")
	}
	s := m.String()
	for _, want := range []string{"evicted=2/20B", "spilled=1/10B", "stalls=3/1s", "nospace=1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String %q lacks %q", s, want)
		}
	}
}

// BenchmarkCapacityEvict measures the steady-state eviction path: a full LRU
// store where every Reserve evicts exactly one victim.
func BenchmarkCapacityEvict(b *testing.B) {
	const frames = 1024
	s := NewStore(sim.NewEngine(1), "bench", frames*4096, NewEvictor(PolicyLRU), false, nil, nil)
	names := make([]string, frames+1)
	for i := range names {
		names[i] = "frame" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
	}
	for i := 0; i < frames; i++ {
		if err := s.Reserve(nil, names[i], 4096); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Reserve(nil, names[i%len(names)], 4096); err != nil {
			b.Fatal(err)
		}
	}
}
