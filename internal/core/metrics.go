package core

import (
	"time"

	"repro/internal/metrics"
)

// registerMetrics wires the run's metrics registry: workflow-level series
// first (frame rates, per-role idle fraction — the paper's pathology
// signal), then the cluster hardware, then the active backend. Registration
// order fixes the CSV column order and dashboard row order, so it must stay
// deterministic — no map iteration, backends in the switch order of newRig.
func (r *rig) registerMetrics() {
	reg := r.reg

	reg.Rate("core/frames_produced", func() float64 { return float64(r.framesProduced) }).OnDashboard()
	reg.Rate("core/frames_consumed", func() float64 { return float64(r.framesRead) }).OnDashboard()
	// Idle fractions normalize the per-role idle tallies over the whole
	// ensemble: 1 means every producer (consumer) spent the full interval
	// blocked on synchronization.
	pairs := r.cfg.Pairs
	reg.Util("core/producer_idle_frac", pairs, func() float64 {
		return float64(r.roleTotals(0).Idle)
	}).OnDashboard()
	reg.Util("core/consumer_idle_frac", pairs, func() float64 {
		return float64(r.roleTotals(1).Idle)
	}).OnDashboard()

	r.cl.RegisterMetrics(reg)

	switch {
	case r.dy != nil:
		r.dy.RegisterMetrics(reg)
	case r.xf != nil:
		r.xf.RegisterMetrics(reg, "xfs")
	}
	// Lustre serves as primary backend or as DYAD's fallback mirror; either
	// way its servers are sampled. (DYAD staging filesystems are created
	// lazily inside running processes and are not registered; their device
	// traffic is visible through the cluster SSD series.)
	if r.lfs != nil {
		r.lfs.RegisterMetrics(reg)
	}

	// Finite burst-buffer capacity series, last so every capacity-off CSV
	// keeps its exact pre-capacity column set. The dashboard trio shows the
	// collapse onset: occupancy saturates, evictions start, producers stall.
	if capMet := r.capMet; capMet != nil {
		dy := r.dy
		xf := r.xf
		reg.Gauge("capacity/staging_occupancy_mb", func() float64 {
			if xf != nil {
				return float64(xf.Capacity().Used()) / 1e6
			}
			var used int64
			for id := 0; id < r.cfg.ComputeNodes(); id++ {
				used += dy.StagingOccupancy(id)
			}
			return float64(used) / 1e6
		}).OnDashboard()
		reg.Counter("capacity/evictions", func() float64 {
			return float64(capMet.Evictions + capMet.CacheEvictions)
		}).OnDashboard()
		reg.Counter("capacity/spilled_mb", func() float64 {
			return float64(capMet.SpilledBytes) / 1e6
		}).OnDashboard()
		reg.Util("capacity/backpressure_frac", pairs, func() float64 {
			return float64(capMet.StallNanos)
		}).OnDashboard()
		reg.Counter("capacity/dropped_frames", func() float64 { return float64(capMet.DroppedFrames) })
		reg.Counter("capacity/cache_bypasses", func() float64 { return float64(capMet.CacheBypasses) })
		if dy != nil {
			// Per-node staging occupancy (CSV only): where the pressure lands.
			// Compute nodes only — Lustre server nodes never host brokers.
			for id := 0; id < r.cfg.ComputeNodes(); id++ {
				id := id
				reg.Gauge("capacity/"+r.cl.Node(id).Name()+"_staging_mb", func() float64 {
					return float64(dy.StagingOccupancy(id)) / 1e6
				})
			}
		}
	}

	// Provenance series, registered last so every critpath-off CSV keeps its
	// exact pre-PR column set. Histograms observe through the recorder's
	// callbacks; the hop list is fixed so the column order never depends on
	// which hops a particular run happens to record.
	if cp := r.cp; cp != nil {
		age := reg.Histogram("critpath/frame_age")
		hopLat := make(map[string]*metrics.Histogram, len(critHopNames))
		for _, name := range critHopNames {
			hopLat[name] = reg.Histogram("critpath/hop_" + name + "_lat")
		}
		cp.OnDep = func(slack time.Duration) { age.Observe(slack) }
		cp.OnHop = func(hop string, d time.Duration) { hopLat[hop].Observe(d) }
	}
}

// critHopNames is the closed set of provenance hop names the backends
// record, in registration order for the metrics CSV header.
var critHopNames = []string{
	"write", "kvs_commit", "sync_wait", "transfer",
	"cache_store", "read", "evict", "spill", "consume",
}
