package lustre

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// An OST outage shorter than the retry budget: the client's RPCs time out,
// resend under backoff, and succeed when the OSS returns — no failover.
func TestOSTOutageRecoversViaResend(t *testing.T) {
	e := sim.NewEngine(1)
	cl, fs := testRig(e, 1, 2)
	fs.FailOST(0, 300*time.Millisecond)
	payload := vfs.BytesPayload(bytes.Repeat([]byte("a"), 1<<20))
	var took time.Duration
	e.Spawn("w", func(p *sim.Proc) {
		t0 := p.Now()
		if err := fs.Client(cl.Node(0)).WriteFile(p, "/f0", payload); err != nil {
			t.Errorf("write: %v", err)
		}
		took = p.Now() - t0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rec := fs.Recovery
	if rec.Timeouts < 1 || rec.Retries < 1 {
		t.Fatalf("recovery %+v: want timeouts and retries", rec)
	}
	if rec.Failovers != 0 {
		t.Fatalf("short outage must not fail over: %+v", rec)
	}
	if took < 300*time.Millisecond {
		t.Fatalf("write took %v, did not wait out the outage", took)
	}
	if got, ok := fs.Tree().Get("/f0"); !ok || got.Size() != payload.Size() {
		t.Fatal("file not written after recovery")
	}
}

// An outage longer than the whole retry budget forces failover: the client
// pays FailoverDelay once and the standby serves every later RPC at normal
// cost.
func TestOSTOutageFailsOverOnce(t *testing.T) {
	e := sim.NewEngine(1)
	cl, fs := testRig(e, 1, 1)
	fs.FailOST(0, time.Hour)
	payload := vfs.BytesPayload(bytes.Repeat([]byte("b"), 1<<18))
	var first, second time.Duration
	e.Spawn("w", func(p *sim.Proc) {
		c := fs.Client(cl.Node(0))
		t0 := p.Now()
		if err := c.WriteFile(p, "/f0", payload); err != nil {
			t.Errorf("first write: %v", err)
		}
		first = p.Now() - t0
		t1 := p.Now()
		if err := c.WriteFile(p, "/f1", payload); err != nil {
			t.Errorf("second write: %v", err)
		}
		second = p.Now() - t1
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rec := fs.Recovery
	if rec.Failovers != 1 {
		t.Fatalf("Failovers = %d, want exactly 1", rec.Failovers)
	}
	p := fs.params
	budget := time.Duration(p.Retry.Max+1)*p.RPCTimeout + p.FailoverDelay
	if first < budget {
		t.Fatalf("first write took %v, below the retry+failover budget %v", first, budget)
	}
	// The standby serves the second write with no recovery cost at all.
	if second > first/4 {
		t.Fatalf("post-failover write took %v (first: %v): standby not at normal cost", second, first)
	}
}

// An MDS outage recovers the same way; metadata ops resume afterwards.
func TestMDSOutageRecovers(t *testing.T) {
	e := sim.NewEngine(1)
	cl, fs := testRig(e, 1, 1)
	fs.FailMDS(250 * time.Millisecond)
	var took time.Duration
	e.Spawn("w", func(p *sim.Proc) {
		t0 := p.Now()
		if err := fs.Client(cl.Node(0)).WriteFile(p, "/f0", vfs.SizeOnly(4096)); err != nil {
			t.Errorf("write: %v", err)
		}
		took = p.Now() - t0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.Recovery.Timeouts < 1 {
		t.Fatalf("recovery %+v: MDS outage invisible", fs.Recovery)
	}
	if took < 250*time.Millisecond {
		t.Fatalf("write took %v, did not wait out the MDS outage", took)
	}
}

// Reads during an OST outage stall and recover like writes.
func TestReadDuringOSTOutage(t *testing.T) {
	e := sim.NewEngine(1)
	cl, fs := testRig(e, 2, 1)
	payload := vfs.BytesPayload(bytes.Repeat([]byte("c"), 1<<20))
	e.Spawn("w", func(p *sim.Proc) {
		if err := fs.Client(cl.Node(0)).WriteFile(p, "/f0", payload); err != nil {
			t.Errorf("write: %v", err)
		}
		fs.FailOST(0, 300*time.Millisecond)
	})
	var got vfs.Payload
	e.Spawn("r", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond) // inside the outage window
		var err error
		got, err = fs.Client(cl.Node(1)).ReadFile(p, "/f0")
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload.Bytes()) {
		t.Fatal("payload mismatch after outage recovery")
	}
	if fs.Recovery.Timeouts < 1 {
		t.Fatalf("recovery %+v: read outage invisible", fs.Recovery)
	}
}

// Overlapping outages extend the window instead of shrinking it, and
// FailOST wraps its index so the fault injector can target any OST count.
func TestFailOSTExtendsAndWraps(t *testing.T) {
	e := sim.NewEngine(1)
	_, fs := testRig(e, 1, 2)
	fs.FailOST(0, 50*time.Millisecond)
	fs.FailOST(0, 20*time.Millisecond)
	if fs.osts[0].downUntil != 50*time.Millisecond {
		t.Fatalf("downUntil = %v, want 50ms", fs.osts[0].downUntil)
	}
	fs.FailOST(2, 80*time.Millisecond) // index 2 wraps onto OST 0
	if fs.osts[0].downUntil != 80*time.Millisecond {
		t.Fatalf("wrapped FailOST: downUntil = %v, want 80ms", fs.osts[0].downUntil)
	}
	if fs.osts[1].downUntil != 0 {
		t.Fatal("outage leaked onto OST 1")
	}
}

// Healthy runs must record zero recovery activity.
func TestHealthyLustreRecordsNoRecovery(t *testing.T) {
	e := sim.NewEngine(1)
	cl, fs := testRig(e, 1, 2)
	e.Spawn("w", func(p *sim.Proc) {
		c := fs.Client(cl.Node(0))
		c.WriteFile(p, "/f0", vfs.SizeOnly(1<<20))
		c.ReadFile(p, "/f0")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fs.Recovery.Zero() {
		t.Fatalf("healthy run recorded recovery: %+v", fs.Recovery)
	}
}
