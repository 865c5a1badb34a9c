package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
)

// TestMetricsSamplingObservationOnly pins the sampling determinism
// contract at the workflow level: attaching a metrics registry must not
// change a single measured number, on every backend and under fault
// injection.
func TestMetricsSamplingObservationOnly(t *testing.T) {
	m := tinyModel()
	cfgs := []Config{
		{Backend: DYAD, Model: m, Frames: 16, Pairs: 2, SingleNode: true, Seed: 11},
		{Backend: XFS, Model: m, Frames: 16, Pairs: 2, SingleNode: true, Seed: 11},
		{Backend: Lustre, Model: m, Frames: 16, Pairs: 2, Seed: 11},
		{Backend: DYAD, Model: m, Frames: 16, Pairs: 2, Seed: 11, LustreFallback: true,
			Faults: &faults.Spec{LinkDegrades: 2, BrokerCrashes: 1}},
	}
	for _, cfg := range cfgs {
		plain, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Backend, err)
		}
		mcfg := cfg
		mcfg.MetricsInterval = 50 * time.Millisecond
		sampled, err := Run(mcfg)
		if err != nil {
			t.Fatalf("%v sampled: %v", cfg.Backend, err)
		}
		if plain.Metrics != nil {
			t.Fatalf("%v: unsampled run carries a registry", cfg.Backend)
		}
		if sampled.Metrics == nil || sampled.Metrics.Len() == 0 {
			t.Fatalf("%v: sampled run has no samples", cfg.Backend)
		}
		if plain.Makespan != sampled.Makespan {
			t.Errorf("%v: makespan changed under sampling: %v vs %v", cfg.Backend, plain.Makespan, sampled.Makespan)
		}
		if plain.Producer != sampled.Producer || plain.Consumer != sampled.Consumer {
			t.Errorf("%v: role totals changed under sampling", cfg.Backend)
		}
		if plain.FramesRead != sampled.FramesRead || plain.BytesRead != sampled.BytesRead {
			t.Errorf("%v: conservation counters changed under sampling", cfg.Backend)
		}
		if plain.Recovery != sampled.Recovery {
			t.Errorf("%v: recovery metrics changed under sampling", cfg.Backend)
		}
	}
}

// TestMetricsRegistryCoversSubsystems checks each backend's run registers
// the series the dashboard and exporters are specified over.
func TestMetricsRegistryCoversSubsystems(t *testing.T) {
	m := tinyModel()
	cases := []struct {
		cfg  Config
		want []string
	}{
		{Config{Backend: DYAD, Model: m, Frames: 8, Pairs: 1, SingleNode: true, Seed: 3},
			[]string{"core/frames_produced", "core/consumer_idle_frac", "cluster/ssd/util",
				"dyad/cache_hit_rate", "dyad/staging_reads", "dyad/kvs/inflight"}},
		{Config{Backend: XFS, Model: m, Frames: 8, Pairs: 1, SingleNode: true, Seed: 3},
			[]string{"cluster/ssd/write_bw", "xfs/journal_backlog", "xfs/journal_bw"}},
		{Config{Backend: Lustre, Model: m, Frames: 8, Pairs: 1, Seed: 3},
			[]string{"lustre/mds/inflight", "lustre/ost/bw", "lustre/ost/imbalance", "cluster/nic/util"}},
	}
	for _, c := range cases {
		c.cfg.MetricsInterval = 50 * time.Millisecond
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%v: %v", c.cfg.Backend, err)
		}
		have := map[string]bool{}
		for _, s := range res.Metrics.Series() {
			have[s.Name] = true
			if len(s.Samples) != res.Metrics.Len() {
				t.Errorf("%v: series %s has %d samples, registry has %d times",
					c.cfg.Backend, s.Name, len(s.Samples), res.Metrics.Len())
			}
		}
		for _, name := range c.want {
			if !have[name] {
				t.Errorf("%v: missing series %s", c.cfg.Backend, name)
			}
		}
		for _, h := range res.Metrics.Histograms() {
			if h.Count < 0 {
				t.Errorf("%v: histogram %s negative count", c.cfg.Backend, h.Name)
			}
		}
	}
}

// TestMetricsDeterministicAcrossRuns: two identically-configured sampled
// runs must export byte-identical CSV and Prometheus documents — the
// property TestOutputDigests' artifacts legs at -j 1 and -j 8 check end to
// end (cmd/experiments).
func TestMetricsDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{Backend: DYAD, Model: tinyModel(), Frames: 16, Pairs: 2, SingleNode: true,
		Seed: 5, MetricsInterval: 25 * time.Millisecond}
	export := func() (string, string) {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var csvB, promB strings.Builder
		runs := []metrics.Run{{Label: "run", Reg: res.Metrics}}
		if err := metrics.WriteCSV(&csvB, runs); err != nil {
			t.Fatal(err)
		}
		if err := metrics.WriteProm(&promB, runs); err != nil {
			t.Fatal(err)
		}
		return csvB.String(), promB.String()
	}
	csv1, prom1 := export()
	csv2, prom2 := export()
	if csv1 != csv2 {
		t.Fatal("metrics CSV differs between identical runs")
	}
	if prom1 != prom2 {
		t.Fatal("metrics Prometheus snapshot differs between identical runs")
	}
}

func TestConfigRejectsNegativeMetricsInterval(t *testing.T) {
	cfg := Config{Backend: DYAD, Model: tinyModel(), Frames: 1, Pairs: 1, SingleNode: true,
		MetricsInterval: -time.Second}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative MetricsInterval validated")
	}
}
