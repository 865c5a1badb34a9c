package faults

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"
)

func sweepSpec() Spec {
	return Spec{
		Horizon:       10 * time.Second,
		DeviceStalls:  2,
		DeviceFails:   1,
		LinkDegrades:  2,
		LinkOutages:   1,
		BrokerCrashes: 1,
		OSTOutages:    2,
		MDSOutages:    0.5,
	}
}

func TestGenerateIsPureFunctionOfSeed(t *testing.T) {
	spec := sweepSpec()
	a := spec.Generate(42, 8, 4)
	b := spec.Generate(42, 8, 4)
	if fmt.Sprint(a.Events) != fmt.Sprint(b.Events) {
		t.Fatal("same (spec, seed, population) produced different plans")
	}
	c := spec.Generate(43, 8, 4)
	if fmt.Sprint(a.Events) == fmt.Sprint(c.Events) {
		t.Fatal("different seeds produced identical plans (seed unused?)")
	}
}

func TestGeneratePlanShape(t *testing.T) {
	spec := sweepSpec()
	nodes, osts := 6, 3
	plan := spec.Generate(7, nodes, osts)
	if plan.Empty() {
		t.Fatal("a spec with ~9.5 mean events generated nothing")
	}
	if !sort.SliceIsSorted(plan.Events, func(i, j int) bool {
		return plan.Events[i].At < plan.Events[j].At
	}) {
		t.Fatal("plan not sorted by At")
	}
	for _, ev := range plan.Events {
		if ev.At < 0 || ev.At > spec.Horizon {
			t.Errorf("%v outside horizon %v", ev, spec.Horizon)
		}
		if ev.For < time.Millisecond {
			t.Errorf("%v duration below the 1ms clamp", ev)
		}
		targets := nodes
		switch ev.Kind {
		case OSTOutage:
			targets = osts
		case MDSOutage:
			targets = 1
		}
		if ev.Target < 0 || ev.Target >= targets {
			t.Errorf("%v target outside [0,%d)", ev, targets)
		}
	}
}

func TestGenerateMeanEventCount(t *testing.T) {
	// Poisson draws with mean 4 over many seeds must average near 4.
	spec := Spec{Horizon: time.Second, LinkOutages: 4}
	total := 0
	const seeds = 400
	for s := 0; s < seeds; s++ {
		total += len(spec.Generate(uint64(s), 4, 1).Events)
	}
	mean := float64(total) / seeds
	if mean < 3.5 || mean > 4.5 {
		t.Fatalf("mean event count %.2f over %d seeds, want ~4", mean, seeds)
	}
}

func TestGenerateKeepsExplicitEvents(t *testing.T) {
	want := Event{At: time.Second, Kind: BrokerCrash, Target: 2, For: 5 * time.Second}
	spec := Spec{Events: []Event{want}}
	if !spec.Enabled() {
		t.Fatal("spec with explicit events reports disabled")
	}
	plan := spec.Generate(1, 4, 1)
	if len(plan.Events) != 1 || plan.Events[0] != want {
		t.Fatalf("plan %v, want exactly %v", plan.Events, want)
	}
}

func TestZeroSpecInert(t *testing.T) {
	var spec Spec
	if spec.Enabled() {
		t.Fatal("zero spec reports enabled")
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("zero spec invalid: %v", err)
	}
	if plan := spec.Generate(1, 4, 2); !plan.Empty() {
		t.Fatalf("zero spec generated %v", plan.Events)
	}
}

func TestScaleMultipliesEveryRate(t *testing.T) {
	s := sweepSpec().Scale(2)
	if s.DeviceStalls != 4 || s.DeviceFails != 2 || s.LinkDegrades != 4 ||
		s.LinkOutages != 2 || s.BrokerCrashes != 2 || s.OSTOutages != 4 || s.MDSOutages != 1 {
		t.Fatalf("Scale(2) = %+v", s)
	}
	if z := sweepSpec().Scale(0); z.Enabled() {
		t.Fatal("Scale(0) still enabled")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []Spec{
		{DeviceStalls: -1},
		{Horizon: -time.Second},
		{MeanOutage: -time.Second},
		{StallFactor: 0.5},
		{Events: []Event{{At: -time.Second}}},
		{Events: []Event{{Target: -1}}},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d (%+v) accepted", i, s)
		}
	}
	if err := sweepSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestBackoffDelayCapsAndClamps(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Max: 5}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond,
	}
	for k, w := range want {
		if got := b.Delay(k); got != w {
			t.Errorf("Delay(%d) = %v, want %v", k, got, w)
		}
	}
	if got := b.Delay(-3); got != 10*time.Millisecond {
		t.Errorf("Delay(-3) = %v, want base", got)
	}
	// Huge attempts must not overflow the shift; the cap bounds the result.
	if got := b.Delay(500); got != 80*time.Millisecond {
		t.Errorf("Delay(500) = %v, want cap", got)
	}
	// With no cap the delay still saturates instead of going negative.
	if got := (Backoff{Base: time.Millisecond}).Delay(500); got <= 0 {
		t.Errorf("uncapped Delay(500) = %v, overflowed", got)
	}
}

func TestMetricsAddAndZero(t *testing.T) {
	var m Metrics
	if m != (Metrics{}) {
		t.Fatal("fresh metrics not zero")
	}
	m.Add(Metrics{Injected: 1, Timeouts: 2, Retries: 3, Failovers: 4,
		BrokerRestarts: 5, LinkStalls: 6, DegradedReads: 7, DegradedBytes: 8,
		RecoveryTime: 9 * time.Second})
	m.Add(Metrics{Injected: 1, RecoveryTime: time.Second})
	if m.Injected != 2 || m.Timeouts != 2 || m.RecoveryTime != 10*time.Second {
		t.Fatalf("accumulated %+v", m)
	}
	if m == (Metrics{}) {
		t.Fatal("non-empty metrics report zero")
	}
}

func TestSentinelsAreDistinct(t *testing.T) {
	sentinels := []error{ErrTimeout, ErrDeviceFailed, ErrLinkDown, ErrBrokerDown, ErrExhausted}
	for i, a := range sentinels {
		wrapped := fmt.Errorf("ctx: %w", a)
		if !errors.Is(wrapped, a) {
			t.Errorf("sentinel %d not Is-able through wrapping", i)
		}
		for j, b := range sentinels {
			if i != j && errors.Is(a, b) {
				t.Errorf("sentinels %d and %d alias", i, j)
			}
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := DeviceStall; k <= MDSOutage; k++ {
		if s := k.String(); s == "" || s == fmt.Sprintf("Kind(%d)", int(k)) {
			t.Errorf("kind %d has no name", int(k))
		}
	}
}
