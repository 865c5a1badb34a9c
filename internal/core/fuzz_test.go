package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/capacity"
	"repro/internal/faults"
	"repro/internal/models"
)

// fuzzConfig builds a Config from small integers, so the fuzzer reaches
// every field's valid and invalid values in few mutations: the backend
// (3 is no backend), a Table I model or the zero model (index 4), -1..16
// pairs, -1..4 frames, a head start and a metrics interval of either sign,
// and fault and capacity specs that are nil at 0 and invalid when
// negative. capPolicy picks the eviction policy (2 is unknown) and, with
// bit 2, a DYAD cache budget.
func fuzzConfig(backend, model, pairs, frames uint8, singleNode bool, headStart, interval, faultRate, capMiB int8, capPolicy uint8) Config {
	cfg := Config{
		Backend:           Backend(backend % 4),
		Pairs:             int(pairs%18) - 1,
		Frames:            int(frames%6) - 1,
		SingleNode:        singleNode,
		Seed:              uint64(backend)<<8 | uint64(model),
		ConsumerHeadStart: time.Duration(headStart) * 10 * time.Millisecond,
		MetricsInterval:   time.Duration(interval) * 50 * time.Millisecond,
	}
	if reg := models.Registry(); int(model%5) < len(reg) {
		cfg.Model = reg[model%5]
	}
	if faultRate != 0 {
		r := float64(faultRate) / 4
		cfg.Faults = &faults.Spec{DeviceStalls: r, LinkOutages: r, BrokerCrashes: r / 2, OSTOutages: r / 2}
	}
	if capMiB != 0 {
		cfg.Capacity = &capacity.Spec{
			StagingBytes: int64(capMiB) << 20,
			Policy:       []string{capacity.PolicyLRU, capacity.PolicyConsumedDrop, "fifo"}[capPolicy%3],
		}
		if capPolicy&4 != 0 {
			cfg.Capacity.CacheBytes = cfg.Capacity.StagingBytes / 2
		}
	}
	return cfg
}

// FuzzConfig holds the configuration boundary to "an error, never a panic
// or a hang": whatever Validate accepts, Run completes with the watchdog
// armed and returns a result or an error. The committed seeds are one
// valid run per backend and one input per Validate rejection.
func FuzzConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, backend, model, pairs, frames uint8, singleNode bool, headStart, interval, faultRate, capMiB int8, capPolicy uint8) {
		cfg := fuzzConfig(backend, model, pairs, frames, singleNode, headStart, interval, faultRate, capMiB, capPolicy)
		if err := cfg.Validate(); err != nil {
			return
		}
		cfg.MaxEvents = 5_000_000
		cfg.MaxVirtualTime = time.Hour
		res, err := Run(cfg)
		if (res == nil) == (err == nil) {
			t.Fatalf("%s: Run returned result %v and error %v; want exactly one", cfg.Label(), res != nil, err)
		}
		// A process that faulted (a nil dereference, an index out of
		// range) fails the run with the runtime's message: a panic, not an
		// error the configuration earned.
		if err != nil && strings.Contains(err.Error(), "runtime error") {
			t.Fatalf("%s: %v", cfg.Label(), err)
		}
	})
}

// An unknown backend used to pass Validate and fail its run on a nil
// dereference in the first producer.
func TestValidateRejectsUnknownBackend(t *testing.T) {
	cfg := fuzzConfig(3, 0, 3, 3, false, 0, 0, 0, 0, 0)
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "unknown backend Backend(3)") {
		t.Fatalf("Validate: %v, want the unknown-backend error", err)
	}
	if _, err := Run(cfg); err == nil || strings.Contains(err.Error(), "runtime error") {
		t.Fatalf("Run: %v, want the unknown-backend error", err)
	}
}
