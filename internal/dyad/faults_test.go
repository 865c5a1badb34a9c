package dyad

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/xfs"
)

// A short broker crash: the consumer's fetch times out, backs off, and the
// retry lands after the restart — no degraded read needed.
func TestBrokerCrashRecoversViaRetry(t *testing.T) {
	e := sim.NewEngine(1)
	cl, sys := rig(e, 2)
	payload := []byte("frame-under-crash")
	sys.Broker(cl.Node(0)).Crash(100 * time.Millisecond)
	var got vfs.Payload
	e.Spawn("prod", func(p *sim.Proc) {
		if err := sys.NewClient(cl.Node(0)).Produce(p, "/flow/f0", vfs.BytesPayload(payload)); err != nil {
			t.Errorf("produce: %v", err)
		}
	})
	e.Spawn("cons", func(p *sim.Proc) {
		var err error
		got, err = sys.NewClient(cl.Node(1)).Consume(p, "/flow/f0")
		if err != nil {
			t.Errorf("consume: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("consumed %q, want %q", got.Bytes(), payload)
	}
	rec := sys.Recovery
	if rec.Timeouts < 1 || rec.Retries < 1 {
		t.Fatalf("recovery %+v: want at least one timeout and one retry", rec)
	}
	if rec.BrokerRestarts != 1 {
		t.Fatalf("BrokerRestarts = %d, want 1", rec.BrokerRestarts)
	}
	if rec.DegradedReads != 0 {
		t.Fatalf("short crash should not degrade; recovery %+v", rec)
	}
	if rec.RecoveryTime == 0 {
		t.Fatal("recovery time not accounted")
	}
	if sys.Fetched != 1 {
		t.Fatalf("Fetched = %d, want 1 (normal serve after restart)", sys.Fetched)
	}
}

// A crash longer than the whole retry budget: the consumer exhausts its
// retries and degrades to a direct read of the producer's staging NVMe,
// which survives broker crashes.
func TestBrokerCrashDegradesToStagingRead(t *testing.T) {
	e := sim.NewEngine(1)
	cl, sys := rig(e, 2)
	payload := bytes.Repeat([]byte("y"), 1<<18)
	sys.Broker(cl.Node(0)).Crash(time.Hour)
	var got vfs.Payload
	e.Spawn("prod", func(p *sim.Proc) {
		sys.NewClient(cl.Node(0)).Produce(p, "/flow/f0", vfs.BytesPayload(payload))
	})
	e.Spawn("cons", func(p *sim.Proc) {
		var err error
		got, err = sys.NewClient(cl.Node(1)).Consume(p, "/flow/f0")
		if err != nil {
			t.Errorf("consume: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("degraded payload mismatch")
	}
	rec := sys.Recovery
	wantTimeouts := int64(sys.params.FetchRetry.Max) + 1
	if rec.Timeouts != wantTimeouts || rec.Retries != int64(sys.params.FetchRetry.Max) {
		t.Fatalf("recovery %+v: want %d timeouts, %d retries", rec, wantTimeouts, sys.params.FetchRetry.Max)
	}
	if rec.DegradedReads != 1 || rec.DegradedBytes != int64(len(payload)) {
		t.Fatalf("recovery %+v: want one degraded read of %d bytes", rec, len(payload))
	}
}

// Broker down and its staging device dead too: the consumer falls over to
// the shared-filesystem mirror installed with SetFallback.
func TestBrokerAndDeviceDeadFallsBackToMirror(t *testing.T) {
	e := sim.NewEngine(1)
	cl, sys := rig(e, 3)
	mirror := xfs.New(cl.Node(2), xfs.DefaultParams())
	sys.SetFallback(func(*cluster.Node) vfs.FS { return mirror })
	payload := bytes.Repeat([]byte("z"), 1<<16)
	e.Spawn("prod", func(p *sim.Proc) {
		if err := sys.NewClient(cl.Node(0)).Produce(p, "/flow/f0", vfs.BytesPayload(payload)); err != nil {
			t.Errorf("produce: %v", err)
		}
		// After production, the producer node dies entirely.
		sys.Broker(cl.Node(0)).Crash(time.Hour)
		cl.Node(0).SSD.Fail()
	})
	var got vfs.Payload
	e.Spawn("cons", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond) // let the producer finish and die
		var err error
		got, err = sys.NewClient(cl.Node(1)).Consume(p, "/flow/f0")
		if err != nil {
			t.Errorf("consume: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("mirror payload mismatch")
	}
	if sys.Recovery.DegradedReads != 1 {
		t.Fatalf("recovery %+v: want one degraded (mirror) read", sys.Recovery)
	}
}

// Same total failure with no mirror: Consume must return — not hang — with
// a chain naming every cause: recovery exhausted, fetch timeout, broker
// down.
func TestExhaustedRecoveryReturnsWrappedSentinels(t *testing.T) {
	e := sim.NewEngine(1)
	cl, sys := rig(e, 2)
	var consumeErr error
	e.Spawn("prod", func(p *sim.Proc) {
		sys.NewClient(cl.Node(0)).Produce(p, "/flow/f0", vfs.SizeOnly(1<<16))
		sys.Broker(cl.Node(0)).Crash(time.Hour)
		cl.Node(0).SSD.Fail()
	})
	e.Spawn("cons", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		_, consumeErr = sys.NewClient(cl.Node(1)).Consume(p, "/flow/f0")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if consumeErr == nil {
		t.Fatal("consume against a fully dead producer succeeded")
	}
	for _, sentinel := range []error{faults.ErrExhausted, faults.ErrTimeout, faults.ErrBrokerDown} {
		if !errors.Is(consumeErr, sentinel) {
			t.Errorf("error %v missing sentinel %v", consumeErr, sentinel)
		}
	}
}

// A crash wipes the broker's RAM cache but not its staging area.
func TestCrashLosesCacheKeepsStaging(t *testing.T) {
	e := sim.NewEngine(1)
	cl, sys := rig(e, 2)
	e.Spawn("prod", func(p *sim.Proc) {
		sys.NewClient(cl.Node(0)).Produce(p, "/flow/f0", vfs.SizeOnly(4096))
	})
	e.Spawn("cons", func(p *sim.Proc) {
		sys.NewClient(cl.Node(1)).Consume(p, "/flow/f0")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	b := sys.Broker(cl.Node(1))
	if _, ok := b.Cache().Get("/flow/f0"); !ok {
		t.Fatal("consumer-side cache copy missing before crash")
	}
	b.Crash(time.Second)
	if _, ok := b.Cache().Get("/flow/f0"); ok {
		t.Fatal("RAM cache survived the crash")
	}
	owner := sys.Broker(cl.Node(0))
	owner.Crash(time.Second)
	if _, ok := owner.Staging().Tree().Get("/flow/f0"); !ok {
		t.Fatal("staging area lost in crash (NVMe must survive)")
	}
}

// Producing onto a failed device surfaces the sentinel and never publishes
// metadata for the lost frame.
func TestProduceOnFailedDeviceErrorsWithoutCommit(t *testing.T) {
	e := sim.NewEngine(1)
	cl, sys := rig(e, 1)
	cl.Node(0).SSD.Fail()
	var produceErr error
	e.Spawn("prod", func(p *sim.Proc) {
		produceErr = sys.NewClient(cl.Node(0)).Produce(p, "/flow/f0", vfs.SizeOnly(1<<16))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(produceErr, faults.ErrDeviceFailed) {
		t.Fatalf("produce err = %v, want ErrDeviceFailed", produceErr)
	}
	if sys.Produced != 0 {
		t.Fatalf("Produced = %d after a failed staging write", sys.Produced)
	}
	if sys.KVS().Len() != 0 {
		t.Fatal("metadata committed for a frame that was never staged")
	}
}

// Fault-free runs must record zero recovery activity — the metrics are a
// cheap proxy for "the healthy path did not change".
func TestHealthyRunRecordsNoRecovery(t *testing.T) {
	e := sim.NewEngine(1)
	cl, sys := rig(e, 2)
	e.Spawn("prod", func(p *sim.Proc) {
		sys.NewClient(cl.Node(0)).Produce(p, "/flow/f0", vfs.SizeOnly(1<<20))
	})
	e.Spawn("cons", func(p *sim.Proc) {
		sys.NewClient(cl.Node(1)).Consume(p, "/flow/f0")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Recovery != (faults.Metrics{}) {
		t.Fatalf("healthy run recorded recovery activity: %+v", sys.Recovery)
	}
}
