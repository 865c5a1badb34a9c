package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

func TestSSDFailReturnsSentinelAndRepairs(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, testSpec(1))
	ssd := c.Node(0).SSD
	var failErr, repairedErr error
	var failTook time.Duration
	e.Spawn("io", func(p *sim.Proc) {
		ssd.Fail()
		if !ssd.failed {
			t.Error("Fail did not mark the device failed")
		}
		t0 := p.Now()
		_, failErr = ssd.Write(p, 1_000_000)
		failTook = p.Now() - t0
		if _, err := ssd.Read(p, 1_000); !errors.Is(err, faults.ErrDeviceFailed) {
			t.Errorf("read on failed device: %v", err)
		}
		ssd.Repair()
		_, repairedErr = ssd.Write(p, 1_000_000)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(failErr, faults.ErrDeviceFailed) {
		t.Fatalf("failed write err = %v, want ErrDeviceFailed", failErr)
	}
	if repairedErr != nil {
		t.Fatalf("repaired device still failing: %v", repairedErr)
	}
	// A failed request costs the fixed latency (the EIO round trip), not the
	// full transfer service.
	if failTook != 10*time.Microsecond {
		t.Fatalf("failed write took %v, want the 10µs latency", failTook)
	}
	if ssd.FailedOps != 2 {
		t.Fatalf("FailedOps = %d, want 2", ssd.FailedOps)
	}
	// Failed operations must not pollute throughput accounting.
	if ssd.BytesWritten != 1_000_000 {
		t.Fatalf("accounting bytes=%d, want 1000000", ssd.BytesWritten)
	}
}

func TestLinkOutageStallsTransfer(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, testSpec(2))
	down := 40 * time.Millisecond
	c.Node(1).FailLinkUntil(down)
	var took time.Duration
	e.Spawn("xfer", func(p *sim.Proc) {
		took = c.Transfer(p, c.Node(0), c.Node(1), 1_000)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if took < down {
		t.Fatalf("transfer took %v, want >= %v (stalled behind the outage)", took, down)
	}
	if c.LinkStalls != 1 {
		t.Fatalf("LinkStalls = %d, want 1", c.LinkStalls)
	}
	if c.LinkStallTime != down {
		t.Fatalf("LinkStallTime = %v, want %v", c.LinkStallTime, down)
	}
}

func TestLinkOutageOverTransfersAreFree(t *testing.T) {
	// After the outage window, transfers must pay nothing extra: the healthy
	// path is a comparison, not a wait.
	e := sim.NewEngine(1)
	c := New(e, testSpec(2))
	c.Node(1).FailLinkUntil(10 * time.Millisecond)
	var during, after time.Duration
	e.Spawn("xfer", func(p *sim.Proc) {
		during = c.Transfer(p, c.Node(0), c.Node(1), 1_000)
		after = c.Transfer(p, c.Node(0), c.Node(1), 1_000)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after >= during {
		t.Fatalf("post-outage transfer (%v) not faster than stalled one (%v)", after, during)
	}
	if c.LinkStalls != 1 {
		t.Fatalf("LinkStalls = %d, want 1 (only the stalled transfer)", c.LinkStalls)
	}
}

func TestFailLinkUntilExtendsNotShrinks(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, testSpec(2))
	n := c.Node(0)
	n.FailLinkUntil(50 * time.Millisecond)
	n.FailLinkUntil(20 * time.Millisecond) // overlapping shorter outage
	if n.linkDownUntil != 50*time.Millisecond {
		t.Fatalf("linkDownUntil = %v, want 50ms (max of overlapping outages)", n.linkDownUntil)
	}
	n.FailLinkUntil(80 * time.Millisecond)
	if n.linkDownUntil != 80*time.Millisecond {
		t.Fatalf("linkDownUntil = %v, want 80ms", n.linkDownUntil)
	}
}

func TestDegradeNICSlowsWire(t *testing.T) {
	timeTransfer := func(factor float64) time.Duration {
		e := sim.NewEngine(1)
		c := New(e, testSpec(2))
		if factor > 1 {
			c.Node(0).DegradeNIC(factor)
		}
		var took time.Duration
		e.Spawn("xfer", func(p *sim.Proc) {
			took = c.Transfer(p, c.Node(0), c.Node(1), 10_000_000)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	healthy := timeTransfer(1)
	slowed := timeTransfer(4)
	if slowed < 3*healthy {
		t.Fatalf("4x NIC degrade: %v vs healthy %v, want >= 3x", slowed, healthy)
	}
	if got := timeTransfer(1); got != healthy {
		t.Fatalf("healthy transfer not reproducible: %v vs %v", got, healthy)
	}
}

func TestSSDDegradeComposesWithFailWindows(t *testing.T) {
	// The fault injector layers stalls on top of a configured straggler
	// degrade by multiplying and dividing back; verify factors compose.
	e := sim.NewEngine(1)
	c := New(e, testSpec(1))
	ssd := c.Node(0).SSD
	ssd.Degrade(2)                       // straggler study baseline
	ssd.Degrade(ssd.DegradeFactor() * 8) // injected stall
	if ssd.DegradeFactor() != 16 {
		t.Fatalf("composed factor %v, want 16", ssd.DegradeFactor())
	}
	next := ssd.DegradeFactor() / 8 // stall repair
	if next < 1 {
		next = 1
	}
	ssd.Degrade(next)
	if ssd.DegradeFactor() != 2 {
		t.Fatalf("repair left factor %v, want the straggler's 2", ssd.DegradeFactor())
	}
	var slow, fast time.Duration
	e.Spawn("io", func(p *sim.Proc) {
		slow, _ = ssd.Write(p, 1_000_000)
		ssd.Degrade(1)
		fast, _ = ssd.Write(p, 1_000_000)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if slow < 2*fast-time.Microsecond {
		t.Fatalf("2x-degraded write %v vs healthy %v", slow, fast)
	}
}
