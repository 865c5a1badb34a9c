// Package faults is the deterministic fault-injection subsystem: it turns a
// stochastic fault specification into a concrete, seed-derived schedule of
// perturbations (device stalls and failures, link degradation and outages,
// DYAD broker crashes, Lustre server outages) that the workflow rig applies
// to a run at fixed virtual times.
//
// Determinism contract: a fault plan is a pure function of the fault Spec,
// the run seed, and the target population — never of wall-clock time or
// host scheduling. Two runs with equal configs produce byte-identical
// timelines regardless of worker count, which is what lets the repository's
// `-j1` vs `-j8` replay tests cover faulted runs too (DESIGN.md §3d).
//
// The package also hosts the shared recovery vocabulary: the `errors.Is`-able
// sentinel errors every backend wraps, the capped-exponential Backoff policy
// clients retry under, and the Metrics record a run reports its recovery
// behavior in.
package faults

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/sim"
)

// Sentinel errors shared by the simulated storage and transport layers.
// Backends wrap these with context (path, node, attempt counts) so call
// sites test failure classes with errors.Is instead of string matching.
var (
	// ErrTimeout marks an RPC or fetch that exceeded its deadline because
	// the serving side was down or unreachable.
	ErrTimeout = errors.New("faults: operation timed out")
	// ErrDeviceFailed marks I/O against a failed storage device.
	ErrDeviceFailed = errors.New("faults: storage device failed")
	// ErrLinkDown marks transport over a failed network link.
	ErrLinkDown = errors.New("faults: network link down")
	// ErrBrokerDown marks a request to a crashed (not yet restarted) broker.
	ErrBrokerDown = errors.New("faults: broker down")
	// ErrExhausted marks a recovery policy that ran out of retries and
	// fallbacks. It always wraps the final underlying cause.
	ErrExhausted = errors.New("faults: recovery exhausted")
)

// Kind is the category of one injected fault event.
type Kind int

// The injectable fault kinds.
const (
	// DeviceStall multiplies one compute node's SSD service times by
	// Factor for the event duration (throttled or failing-slow device).
	DeviceStall Kind = iota
	// DeviceFail makes one compute node's SSD return ErrDeviceFailed for
	// the event duration.
	DeviceFail
	// LinkDegrade multiplies one compute node's NIC wire time by Factor
	// for the event duration (flaky cable, congested uplink).
	LinkDegrade
	// LinkOutage takes one compute node's link down for the event
	// duration; in-flight and new transfers stall until the link returns
	// (InfiniBand-style retransmission, invisible to the application
	// except as lost time).
	LinkOutage
	// BrokerCrash kills the DYAD broker on one node; it restarts after
	// the event duration. The broker's RAM cache is lost, its NVMe
	// staging area survives. Ignored by non-DYAD runs.
	BrokerCrash
	// OSTOutage takes one Lustre object storage target down for the event
	// duration (OSS node failure); clients time out and eventually fail
	// over. Ignored by non-Lustre runs.
	OSTOutage
	// MDSOutage takes the Lustre metadata server down for the event
	// duration. Ignored by non-Lustre runs.
	MDSOutage
)

// String returns the kind name used in traces and reports.
func (k Kind) String() string {
	switch k {
	case DeviceStall:
		return "device-stall"
	case DeviceFail:
		return "device-fail"
	case LinkDegrade:
		return "link-degrade"
	case LinkOutage:
		return "link-outage"
	case BrokerCrash:
		return "broker-crash"
	case OSTOutage:
		return "ost-outage"
	case MDSOutage:
		return "mds-outage"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault: at virtual time At, fault Target (a compute
// node index, or an OST index for OSTOutage) for duration For. Factor is the
// degradation multiplier for stall/degrade kinds.
type Event struct {
	At     time.Duration
	Kind   Kind
	Target int
	For    time.Duration
	Factor float64
}

// String renders the event for traces and plan dumps.
func (e Event) String() string {
	return fmt.Sprintf("%v %s target=%d for=%v factor=%.2g", e.At, e.Kind, e.Target, e.For, e.Factor)
}

// Plan is a concrete fault schedule, ordered by At (ties keep generation
// order). An empty plan injects nothing and costs nothing.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan injects no faults.
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// Spec is a stochastic fault model: mean event counts per kind over the
// fault window. The zero Spec is inert. Counts are means of deterministic
// Poisson draws, so fractional values (e.g. 0.5 broker crashes per run)
// express "happens in some repetitions".
type Spec struct {
	// Horizon is the virtual window faults are injected into, starting at
	// t=0. Zero lets the caller (the workflow rig) default it to the run's
	// nominal production span.
	Horizon time.Duration

	// Per-kind mean event counts over the horizon.
	DeviceStalls  float64
	DeviceFails   float64
	LinkDegrades  float64
	LinkOutages   float64
	BrokerCrashes float64
	OSTOutages    float64
	MDSOutages    float64

	// MeanOutage is the mean duration of one fault (exponentially
	// distributed, clamped to at least 1ms). Zero defaults to 400ms.
	MeanOutage time.Duration
	// StallFactor is the service-time multiplier of stall/degrade events.
	// Zero defaults to 8.
	StallFactor float64

	// Events are explicit extra events appended verbatim (tests and
	// targeted studies). They are injected even when every rate is zero.
	Events []Event
}

// Enabled reports whether the spec can produce any fault.
func (s Spec) Enabled() bool {
	return s.DeviceStalls > 0 || s.DeviceFails > 0 || s.LinkDegrades > 0 ||
		s.LinkOutages > 0 || s.BrokerCrashes > 0 || s.OSTOutages > 0 ||
		s.MDSOutages > 0 || len(s.Events) > 0
}

// Validate reports specification errors.
func (s Spec) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"DeviceStalls", s.DeviceStalls}, {"DeviceFails", s.DeviceFails},
		{"LinkDegrades", s.LinkDegrades}, {"LinkOutages", s.LinkOutages},
		{"BrokerCrashes", s.BrokerCrashes}, {"OSTOutages", s.OSTOutages},
		{"MDSOutages", s.MDSOutages},
	} {
		if r.v < 0 || math.IsNaN(r.v) || math.IsInf(r.v, 0) {
			return fmt.Errorf("faults: %s rate %v invalid", r.name, r.v)
		}
	}
	if s.Horizon < 0 {
		return fmt.Errorf("faults: horizon %v < 0", s.Horizon)
	}
	if s.MeanOutage < 0 {
		return fmt.Errorf("faults: mean outage %v < 0", s.MeanOutage)
	}
	if s.StallFactor < 0 || (s.StallFactor > 0 && s.StallFactor < 1) {
		return fmt.Errorf("faults: stall factor %v < 1", s.StallFactor)
	}
	for i, ev := range s.Events {
		if ev.At < 0 || ev.For < 0 {
			return fmt.Errorf("faults: explicit event %d has negative time (%v, %v)", i, ev.At, ev.For)
		}
		if ev.Target < 0 {
			return fmt.Errorf("faults: explicit event %d target %d < 0", i, ev.Target)
		}
	}
	return nil
}

// Scale returns a copy of the spec with every rate multiplied by f — the
// fault-rate axis of sweep experiments.
func (s Spec) Scale(f float64) Spec {
	out := s
	out.DeviceStalls *= f
	out.DeviceFails *= f
	out.LinkDegrades *= f
	out.LinkOutages *= f
	out.BrokerCrashes *= f
	out.OSTOutages *= f
	out.MDSOutages *= f
	return out
}

// Generate derives the concrete fault plan for one run. The plan depends
// only on (spec, seed, nodes, osts): event counts are Poisson draws, times
// are uniform over the horizon, targets uniform over the population, and
// durations exponential around MeanOutage — all from one private RNG stream
// seeded by the run seed, never from the engine's process streams (so
// enabling faults perturbs the workload only through the faults themselves).
func (s Spec) Generate(seed uint64, nodes, osts int) Plan {
	var plan Plan
	plan.Events = append(plan.Events, s.Events...)
	if nodes < 1 {
		nodes = 1
	}
	if osts < 1 {
		osts = 1
	}
	horizon := s.Horizon
	if horizon <= 0 {
		horizon = time.Second
	}
	meanOutage := s.MeanOutage
	if meanOutage <= 0 {
		meanOutage = 400 * time.Millisecond
	}
	factor := s.StallFactor
	if factor < 1 {
		factor = 8
	}
	rng := sim.NewRNG(seed ^ 0xFA017_5EED)
	draw := func(mean float64, kind Kind, targets int) {
		n := poisson(&rng, mean)
		for i := 0; i < n; i++ {
			ev := Event{
				At:     time.Duration(rng.Float64() * float64(horizon)),
				Kind:   kind,
				Target: rng.Intn(targets),
				For:    rng.Exp(meanOutage),
				Factor: factor,
			}
			if ev.For < time.Millisecond {
				ev.For = time.Millisecond
			}
			plan.Events = append(plan.Events, ev)
		}
	}
	// Fixed draw order: changing it would silently reshuffle plans across
	// versions, breaking committed golden fixtures.
	draw(s.DeviceStalls, DeviceStall, nodes)
	draw(s.DeviceFails, DeviceFail, nodes)
	draw(s.LinkDegrades, LinkDegrade, nodes)
	draw(s.LinkOutages, LinkOutage, nodes)
	draw(s.BrokerCrashes, BrokerCrash, nodes)
	draw(s.OSTOutages, OSTOutage, osts)
	draw(s.MDSOutages, MDSOutage, 1)
	sort.SliceStable(plan.Events, func(i, j int) bool {
		return plan.Events[i].At < plan.Events[j].At
	})
	return plan
}

// poisson draws a Poisson-distributed count with the given mean (Knuth's
// algorithm; mean values here are small single digits).
func poisson(rng *sim.RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	limit := math.Exp(-mean)
	n := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= limit {
			return n
		}
		n++
		if n > 10_000 { // mean is validated finite; pure safety net
			return n
		}
	}
}

// Backoff is a capped exponential retry policy: attempt k (0-based) waits
// Base<<k, clamped to Cap, and at most Max retries are made before the
// caller falls over to its degradation path.
type Backoff struct {
	Base time.Duration
	Cap  time.Duration
	Max  int
}

// Delay returns the wait before retry attempt k (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	if attempt > 30 { // avoid shift overflow; Cap clamps anyway
		attempt = 30
	}
	d := b.Base << uint(attempt)
	if b.Cap > 0 && d > b.Cap {
		d = b.Cap
	}
	return d
}

// Metrics is the per-run recovery record: what the fault layer injected and
// what it cost the clients to survive it. All durations are virtual time.
type Metrics struct {
	// Injected is the number of fault events applied to the run.
	Injected int64
	// Timeouts counts requests that hit their deadline against a down
	// server, broker, or device.
	Timeouts int64
	// Retries counts backoff retries after timeouts.
	Retries int64
	// Failovers counts Lustre client switches to a failover OSS/MDS.
	Failovers int64
	// BrokerRestarts counts DYAD broker crash/restart cycles.
	BrokerRestarts int64
	// LinkStalls counts transfers that had to wait out a link outage.
	LinkStalls int64
	// DegradedReads counts DYAD consumptions served by the degraded path
	// (direct staging refetch or shared-filesystem fallback).
	DegradedReads int64
	// DegradedBytes is the payload volume moved in degraded mode.
	DegradedBytes int64
	// RecoveryTime is the total virtual time processes spent waiting in
	// timeouts, backoff delays, failovers, and link stalls.
	RecoveryTime time.Duration
}

// Add accumulates o into m.
func (m *Metrics) Add(o Metrics) {
	m.Injected += o.Injected
	m.Timeouts += o.Timeouts
	m.Retries += o.Retries
	m.Failovers += o.Failovers
	m.BrokerRestarts += o.BrokerRestarts
	m.LinkStalls += o.LinkStalls
	m.DegradedReads += o.DegradedReads
	m.DegradedBytes += o.DegradedBytes
	m.RecoveryTime += o.RecoveryTime
}

// String renders the metrics compactly for reports and golden fixtures.
func (m Metrics) String() string {
	return fmt.Sprintf("injected=%d timeouts=%d retries=%d failovers=%d restarts=%d stalls=%d degraded=%d/%dB recovery=%v",
		m.Injected, m.Timeouts, m.Retries, m.Failovers, m.BrokerRestarts, m.LinkStalls,
		m.DegradedReads, m.DegradedBytes, m.RecoveryTime)
}
