package locks

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestSharedLocksCoexist(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewManager(e, DefaultParams())
	holders := 0
	maxHolders := 0
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			m.Lock(p, "/f", Shared)
			holders++
			if holders > maxHolders {
				maxHolders = holders
			}
			p.Sleep(time.Millisecond)
			holders--
			m.Unlock(p, "/f", Shared)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxHolders != 4 {
		t.Fatalf("max concurrent shared holders %d, want 4", maxHolders)
	}
	// All shared: total time ~1ms + syscall costs, not 4ms.
	if e.Now() > 2*time.Millisecond {
		t.Fatalf("shared locks serialized: end %v", e.Now())
	}
}

func TestExclusiveExcludes(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewManager(e, DefaultParams())
	inside, contended := 0, 0
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			start := p.Now()
			m.WithExclusive(p, "/f", func() {
				if p.Now()-start > m.params.SyscallLatency {
					contended++ // waited in the queue
				}
				inside++
				if inside != 1 {
					t.Errorf("two exclusive holders at once")
				}
				p.Sleep(time.Millisecond)
				inside--
			})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() < 3*time.Millisecond {
		t.Fatalf("exclusive sections overlapped: end %v", e.Now())
	}
	if contended != 2 {
		t.Fatalf("contended %d, want 2", contended)
	}
}

func TestSharedBlockedBehindQueuedExclusive(t *testing.T) {
	// r1 holds shared; w queues exclusive; r2 arriving later must NOT jump
	// the queue (FIFO prevents writer starvation).
	e := sim.NewEngine(1)
	m := NewManager(e, DefaultParams())
	var order []string
	e.Spawn("r1", func(p *sim.Proc) {
		m.Lock(p, "/f", Shared)
		p.Sleep(10 * time.Millisecond)
		m.Unlock(p, "/f", Shared)
		order = append(order, "r1")
	})
	e.Spawn("w", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		m.Lock(p, "/f", Exclusive)
		order = append(order, "w")
		p.Sleep(time.Millisecond)
		m.Unlock(p, "/f", Exclusive)
	})
	e.Spawn("r2", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		m.Lock(p, "/f", Shared)
		order = append(order, "r2")
		m.Unlock(p, "/f", Shared)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"r1", "w", "r2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestDistinctPathsIndependent(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewManager(e, DefaultParams())
	for i := 0; i < 2; i++ {
		path := fmt.Sprintf("/f%d", i)
		e.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			m.WithExclusive(p, path, func() { p.Sleep(5 * time.Millisecond) })
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() > 6*time.Millisecond {
		t.Fatalf("independent paths serialized: end %v", e.Now())
	}
}

func TestPathSpellingNormalized(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewManager(e, DefaultParams())
	var got []string
	e.Spawn("a", func(p *sim.Proc) {
		m.Lock(p, "/d//f", Exclusive)
		p.Sleep(2 * time.Millisecond)
		got = append(got, "a-done")
		m.Unlock(p, "/d/f", Exclusive)
	})
	e.Spawn("b", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		m.Lock(p, "d/f", Exclusive) // same lock, different spelling
		got = append(got, "b-in")
		m.Unlock(p, "/d/f", Exclusive)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a-done" || got[1] != "b-in" {
		t.Fatalf("order %v: path spellings mapped to different locks", got)
	}
}

// The table holds only live locks: balanced Lock/Unlock over many distinct
// paths, contended or not, leaves it empty, with the recycled entries on
// the free list bounded by the peak number of live locks.
func TestTableEmptiesAfterBalancedLocks(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewManager(e, DefaultParams())
	contended := 0
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			for f := 0; f < 100; f++ {
				// Workers share every other path, so some locks contend.
				path := fmt.Sprintf("/d/%d/%d", i%2, f)
				mode := Shared
				if f%3 == 0 {
					mode = Exclusive
				}
				start := p.Now()
				m.Lock(p, path, mode)
				if p.Now()-start > m.params.SyscallLatency {
					contended++ // waited in the queue
				}
				p.Sleep(time.Microsecond)
				m.Unlock(p, path, mode)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if contended == 0 {
		t.Fatal("no lock contended; the test exercises no queue")
	}
	if len(m.locks) != 0 {
		t.Fatalf("%d entries left in the lock table after balanced use", len(m.locks))
	}
	if len(m.free) > 4 {
		t.Fatalf("free list holds %d entries, more than the 4 locks ever live at once", len(m.free))
	}
}

// A steady lock/unlock cycle over fresh paths reuses the recycled entries
// and allocates nothing.
func TestSteadyLockCycleZeroAllocs(t *testing.T) {
	paths := make([]string, 64)
	for i := range paths {
		paths[i] = fmt.Sprintf("/ensemble/pair%03d/frame%05d.pb", i%4, i)
	}
	e := sim.NewEngine(1)
	m := NewManager(e, DefaultParams())
	var allocs uint64
	e.Spawn("p", func(p *sim.Proc) {
		cycle := func() {
			for _, path := range paths {
				m.Lock(p, path, Exclusive)
				m.Unlock(p, path, Exclusive)
				m.WithShared(p, path, func() {})
			}
		}
		cycle() // warm up the free list, the map and the event queue
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cycle()
		runtime.ReadMemStats(&after)
		allocs = after.Mallocs - before.Mallocs
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady lock/unlock cycle over %d paths allocated %d objects, want 0", len(paths), allocs)
	}
}
