package experiments

import (
	"cmp"
	"errors"
	"slices"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

// Cell is one configuration of a sweep: Reps repetitions of Cfg, collected
// into every sink under Label.
type Cell struct {
	Cfg core.Config
	// Label names the cell in trace, metrics and critical-path output.
	// Empty means Cfg.Label() after the sweep protocol is applied.
	Label string
	// Reps is the number of repetitions (0 means Options.Reps).
	Reps int
}

// Kill sentinels for Run's tolerated list. A run whose error chain wraps
// one of them is an expected outcome of the sweep, not a failure of it: it
// leaves a nil result for the caller to count.
var (
	// FaultKills are the deaths an injected fault may cause.
	FaultKills = []error{faults.ErrDeviceFailed, faults.ErrExhausted}
	// SearchKills adds the watchdog to FaultKills: the scenario search
	// drives fault rates far past the fault sweep's, where recovery can
	// stall a run until the watchdog ends it.
	SearchKills = []error{faults.ErrDeviceFailed, faults.ErrExhausted, sim.ErrWatchdog}
	// CapacityKills are the deaths of a starved burst buffer: ENOSPC, a
	// read of an evicted frame, or a degraded read that found no copy.
	CapacityKills = []error{capacity.ErrNoSpace, capacity.ErrEvicted, faults.ErrExhausted}
)

// Run is the one path every sweep takes from configurations to results.
// It applies the sweep protocol to each cell: o.Frames, the repetition
// seed schedule from o.Seed (core.AppendRepeats), 0.4% compute jitter,
// background noise on Lustre, and o.ConsumerHeadStart unless the cell set
// its own. It turns every sink in o on for each cell's first repetition
// only, so trace and metrics volume stay linear in the sweep and every
// repetition keeps the seed of an unobserved run.
//
// The cells run as one RunMany batch. The exception is a sweep with a
// trace stream: then each cell is its own batch, in cell order, so the
// shared stream only ever has one writer and its runs appear in the order
// buffered collection records them.
//
// A batch error whose every run died of a tolerated sentinel is dropped;
// any other error aborts before the next batch. Each cell's results (nil
// for a killed run) are added to every collector under the cell's label
// once its batch is done, and returned in cell order.
func (o Options) Run(cells []Cell, tolerated ...error) ([][]*core.Result, error) {
	o = o.Defaults()
	streaming := o.TraceStream != nil
	observed := streaming || o.Trace != nil || o.Metrics != nil || o.CritPath != nil
	n := 0
	for _, c := range cells {
		n += cmp.Or(c.Reps, o.Reps)
	}
	cfgs := make([]core.Config, 0, n)
	// Cell i's runs are cfgs[spans[i].lo:spans[i].hi].
	spans := make([]struct {
		lo, hi int
		label  string
	}, len(cells))
	for i, c := range cells {
		cfg := c.Cfg
		cfg.Frames = o.Frames
		cfg.Seed = o.Seed
		cfg.ComputeJitter = 0.004
		if cfg.Backend == core.Lustre {
			cfg.LustreNoise = true
		}
		if cfg.ConsumerHeadStart == 0 {
			// A calibration tune hook that set a per-config head start
			// wins over the option-level default.
			cfg.ConsumerHeadStart = o.ConsumerHeadStart
		}
		sp := &spans[i]
		sp.lo = len(cfgs)
		cfgs = core.AppendRepeats(cfgs, cfg, cmp.Or(c.Reps, o.Reps))
		sp.hi = len(cfgs)
		if observed {
			sp.label = cmp.Or(c.Label, cfg.Label())
			o.observe(&cfgs[sp.lo], sp.label)
		}
	}

	step := len(cells) // cells per batch
	if streaming {
		step = 1
	}
	out := make([][]*core.Result, len(cells))
	var errs []error
	for lo := 0; lo < len(cells); lo += step {
		hi := lo + step
		first := spans[lo].lo
		results, err := core.RunMany(cfgs[first:spans[hi-1].hi], o.Workers)
		if err != nil {
			errs = append(errs, err)
			if !tolerates(err, tolerated) {
				return nil, errors.Join(errs...)
			}
		}
		if observeBatch != nil {
			observeBatch(results)
		}
		for i := lo; i < hi; i++ {
			sp := spans[i]
			out[i] = results[sp.lo-first : sp.hi-first]
			if o.Trace != nil {
				o.Trace.Add(sp.label, out[i])
			}
			if o.Metrics != nil {
				o.Metrics.Add(sp.label, out[i])
			}
			if o.CritPath != nil {
				o.CritPath.Add(sp.label, out[i])
			}
		}
	}
	return out, nil
}

// observeBatch, when set, sees the results of every batch Run makes,
// killed runs as nil. Tests use it to count a sweep's kernel work
// (core.Result.HostCost).
var observeBatch func([]*core.Result)

// observe turns every sink in o on for one run. A run both traced and
// metered gets its counter tracks merged into the Chrome trace; one both
// traced and recorded gets its frame lineages merged as flows.
func (o Options) observe(cfg *core.Config, label string) {
	if o.Trace != nil {
		cfg.RecordSpans = true
	} else if o.TraceStream != nil {
		cfg.TraceStream = o.TraceStream
	}
	if o.Metrics != nil {
		cfg.MetricsInterval = o.Metrics.SampleInterval()
	}
	if cfg.TraceStream != nil {
		cfg.RunLabel = label
	}
	if o.CritPath != nil {
		cfg.CritPath = true
	}
}

// tolerates reports whether every run error joined into a batch error
// wraps one of the sentinels.
func tolerates(err error, sentinels []error) bool {
	errs := []error{err}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		errs = joined.Unwrap()
	}
	for _, e := range errs {
		if !slices.ContainsFunc(sentinels, func(s error) bool { return errors.Is(e, s) }) {
			return false
		}
	}
	return true
}
