// Command perfbench is the repository's benchmark. It drives the simulator
// from outside, through the public entry points of package repro, with one
// simulation worker, and prints the end-to-end metrics of one workload — or,
// with --trace 1, the per-layer metrics of a separate traced run. The last
// line of standard output is the result as one JSON object. README.md
// documents the workloads, the metrics and how they are measured.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-figs --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line flags.
type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	smoke      bool
	setupChild bool
}

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untimed run (--trace 0).
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"allocs", "count"}, {"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"}, {"paper_err", "ratio"}, {"pass_rate", "ratio"},
}

// perLayer are the metrics of the traced run (--trace 1).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"runtime.sched_share", "share"}, {"runtime.gc_share", "share"}, {"runtime.other_share", "share"},
	}
	for _, l := range append(append([]string(nil), layers...), "other_internal", "unattributed") {
		defs = append(defs, metricDef{l + ".cpu_share", "share"})
	}
	for _, b := range []string{"dyad", "xfs", "lustre"} {
		defs = append(defs, metricDef{"core.us_per_frame." + b, "us"}, metricDef{"core.allocs_per_frame." + b, "count"})
	}
	for _, id := range append(append([]string(nil), figIDs...), "faultsweep", "capsweep") {
		defs = append(defs, metricDef{"experiments.s." + id, "s"})
	}
	for _, s := range sinks {
		defs = append(defs, metricDef{"obs." + s + ".overhead", "ratio"}, metricDef{"obs." + s + ".allocs", "count"},
			metricDef{"obs." + s + ".export_ms", "ms"})
	}
	return append(defs,
		metricDef{"trace.spans", "count"}, metricDef{"metrics.samples", "count"}, metricDef{"critpath.lineage_hops", "count"},
		metricDef{"core.frames", "count"}, metricDef{"core.movement_s", "virtual_s"}, metricDef{"core.idle_s", "virtual_s"},
		metricDef{"dyad.ops", "count"}, metricDef{"kvs.ops", "count"}, metricDef{"kvs.wait_s", "virtual_s"},
		metricDef{"lustre.ops", "count"}, metricDef{"lustre.busy_s", "virtual_s"}, metricDef{"xfs.ops", "count"},
		metricDef{"cluster.transfers", "count"}, metricDef{"cluster.bytes", "bytes"},
		metricDef{"faults.retries", "count"}, metricDef{"faults.timeouts", "count"}, metricDef{"faults.failovers", "count"},
		metricDef{"faults.recovery_s", "virtual_s"}, metricDef{"capacity.evictions", "count"},
		metricDef{"capacity.spills", "count"}, metricDef{"capacity.stall_s", "virtual_s"},
		metricDef{"bench.trace_overhead", "ratio"}, metricDef{"host.cpu_probe_ms", "ms"}, metricDef{"host.pingpong_us", "us"},
	)
}()

// sinks are the observability sinks of the on/off table.
var sinks = []string{"trace", "metrics", "critpath"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.IntVar(&o.seconds, "seconds", 20, "seconds of timed iterations")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink every workload to minimal size (for the benchmark's own tests)")
	fs.BoolVar(&o.setupChild, "setup-child", false, "build the workload, run one cold iteration, print its output digest")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(o.workload)
	if !ok || fs.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	b := &bench{opts: o, sz: fullSizes, stderr: stderr}
	if o.smoke {
		b.sz = smokeSizes
	}
	inst, err := w.prepare(workloadSeed(o.seed), b.sz)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.inst = inst

	if o.setupChild {
		h := sha256.New()
		if err := inst.iterate(&callTimer{}, h); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, hex.EncodeToString(h.Sum(nil)))
		return 0
	}

	var metrics map[string]float64
	if o.trace == 1 {
		metrics, err = b.traced()
	} else {
		metrics, err = b.timed()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	return b.report(stdout, defs, metrics)
}

// workloadSeed maps the --seed argument to the simulator's seed.
func workloadSeed(n int64) uint64 { return uint64(n)*0x9E3779B97F4A7C15 + 0xD1AD }

// bench is one run of the benchmark: a workload instance, its check
// tallies, and the host probes and per-sample figures it recorded.
type bench struct {
	opts   options
	sz     sizes
	inst   *instance
	stderr io.Writer

	attempted, failed int
	ref               string // digest of the first iteration's output

	probes  []probe
	samples []sample
	scale   map[string]float64 // speedScale applied to the timed and set-up times
}

// check counts one attempted check, failing it on err.
func (b *bench) check(err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintln(b.stderr, "perfbench: check failed:", err)
		return false
	}
	return true
}

// iteration runs the workload once and checks that it succeeded and that
// its output bytes equal those of the first iteration of this seed.
func (b *bench) iteration(d *callTimer) {
	h := sha256.New()
	err := b.inst.iterate(d, h)
	if err == nil {
		err = b.sameOutput(hex.EncodeToString(h.Sum(nil)))
	}
	b.check(err)
}

func (b *bench) sameOutput(digest string) error {
	if b.ref == "" {
		b.ref = digest
		return nil
	}
	if digest != b.ref {
		return fmt.Errorf("output digest %.12s differs from the first iteration's %.12s", digest, b.ref)
	}
	return nil
}

// sample is one timed iteration.
type sample struct {
	wall, cpu, mallocs, bytes float64
}

// measure runs one timed iteration from a collected heap, preceded by a
// host-speed probe. The probe runs after the collection, so garbage the
// previous iteration left cannot slow it.
func (b *bench) measure(d *callTimer) sample {
	runtime.GC()
	b.probes = append(b.probes, hostSpeed())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	b.iteration(d)
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	d.endIteration()
	s := sample{wall: wall, cpu: c1 - c0, mallocs: float64(m1.Mallocs - m0.Mallocs),
		bytes: float64(m1.TotalAlloc - m0.TotalAlloc)}
	b.samples = append(b.samples, s)
	return s
}

// sampleFor measures iterations until both min samples and dur have
// passed, then probes the host once more so every sample is bracketed.
func (b *bench) sampleFor(d *callTimer, dur time.Duration, min int) []sample {
	start := time.Now()
	var out []sample
	for len(out) < min || time.Since(start) < dur {
		out = append(out, b.measure(d))
	}
	b.probes = append(b.probes, hostSpeed())
	return out
}

func walls(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall
	}
	return out
}

// refProbeMs is the probe's CPU-loop time in ms on the host the benchmark
// was defined on (2-core Intel Xeon, Go 1.24). The end-to-end times are
// scaled to it: on a shared host the run-to-run drift of the simulator's
// time follows the probe closely, and the scaling removes most of it.
const refProbeMs = 6.5

// speedScale is refProbeMs over the median CPU-loop time of ps.
func speedScale(ps []probe) float64 {
	ms := make([]float64, len(ps))
	for i, p := range ps {
		ms[i] = p.CPUms
	}
	return refProbeMs / median(ms)
}

// timed is the end-to-end run: cold set-up in fresh processes, a warm-up
// iteration, timed iterations for --seconds, then the paper-accuracy
// protocol.
func (b *bench) timed() (map[string]float64, error) {
	type child struct {
		secs   float64
		digest string
		err    error
	}
	var children []child
	var setupProbes []probe
	for i := 0; i < b.sz.setupRuns; i++ {
		setupProbes = append(setupProbes, hostSpeed())
		secs, digest, err := b.setupChild()
		children = append(children, child{secs, digest, err})
	}
	setupProbes = append(setupProbes, hostSpeed())
	b.scale = map[string]float64{"setup": speedScale(setupProbes)}

	d := &callTimer{}
	b.iteration(d) // warm-up; its output is the reference
	var setups []float64
	for _, c := range children {
		err := c.err
		if err == nil {
			err = b.sameOutput(c.digest)
		}
		if b.check(err) {
			setups = append(setups, c.secs)
		}
	}

	ss := b.sampleFor(d, time.Duration(b.opts.seconds)*time.Second, b.sz.minSamples)
	b.scale["timed"] = speedScale(b.probes)
	peak := peakRSSMB()
	perr, err := paperErr(workloadSeed(b.opts.seed))
	b.check(err)

	var cpu, mallocs, mb []float64
	for _, s := range ss {
		cpu = append(cpu, s.cpu)
		mallocs = append(mallocs, s.mallocs)
		mb = append(mb, s.bytes/1e6)
	}
	return map[string]float64{
		"wall_s":      median(walls(ss)) * b.scale["timed"],
		"cpu_s":       median(cpu) * b.scale["timed"],
		"setup_s":     median(setups) * b.scale["setup"],
		"allocs":      median(mallocs),
		"alloc_mb":    median(mb),
		"peak_rss_mb": peak,
		"paper_err":   perr,
		"pass_rate":   float64(b.attempted-b.failed) / float64(b.attempted),
	}, nil
}

// setupChild times one cold start: a fresh process of this binary builds
// the workload, runs its first iteration and prints the output digest.
func (b *bench) setupChild() (secs float64, digest string, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, "", err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--workload", b.opts.workload,
		"--seed", strconv.FormatInt(b.opts.seed, 10), "--setup-child", "--smoke="+strconv.FormatBool(b.opts.smoke))
	cmd.Stderr = b.stderr
	t0 := time.Now()
	out, err := cmd.Output()
	secs = time.Since(t0).Seconds()
	if err != nil {
		return 0, "", fmt.Errorf("set-up process: %w", err)
	}
	return secs, strings.TrimSpace(string(out)), nil
}

// paperErr is the mean |ln(measured/paper)| over the calibration targets,
// measured with the calibration protocol at the quick experiment options.
func paperErr(seed uint64) (float64, error) {
	ms, err := experiments.MeasureCalibration(experiments.Options{Quick: true, Workers: 1, Seed: seed}, nil, false)
	if err != nil {
		return 0, err
	}
	got := map[string]float64{}
	for _, m := range ms {
		if m.NaNs > 0 {
			return 0, fmt.Errorf("paper_err: %s dropped %d NaN observations", m.Name, m.NaNs)
		}
		got[m.Name] = m.Value
	}
	targets := repro.CalibTargets(false)
	total := 0.0
	for _, t := range targets {
		v, ok := got[t.Name]
		if !ok || !(v > 0) {
			return 0, fmt.Errorf("paper_err: no positive measurement for %s", t.Name)
		}
		total += math.Abs(math.Log(v / t.Paper))
	}
	return total / float64(len(targets)), nil
}

// traced is the per-layer run: untraced iterations for a baseline, profiled
// and timed iterations, then the probe passes and, where the workload has
// them, the sink on/off table.
func (b *bench) traced() (map[string]float64, error) {
	total := time.Duration(b.opts.seconds) * time.Second
	d := &callTimer{}
	b.iteration(d) // warm-up
	base := b.sampleFor(d, total*3/10, 2)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	td := newCallTimer()
	profiled := b.sampleFor(td, max(total*4/10, time.Second), 2)
	pprof.StopCPUProfile()

	m := map[string]float64{}
	m["bench.trace_overhead"] = median(walls(profiled)) / median(walls(base))
	stacks, err := parseProfile(prof.Bytes())
	if b.check(err) {
		f := fold(stacks)
		var sumErr error
		for name, shares := range map[string]map[string]float64{"leaf-kind": f.kind, "layer": f.layer} {
			if s := sum(shares); f.samples == 0 || math.Abs(s-1) > 1e-9 {
				sumErr = errors.Join(sumErr, fmt.Errorf("%s fold of %d samples sums to %v", name, f.samples, s))
			}
		}
		b.check(sumErr)
		m["runtime.sched_share"] = f.kind[kindSched]
		m["runtime.gc_share"] = f.kind[kindGC]
		m["runtime.other_share"] = f.kind[kindOther]
		for l, v := range f.layer {
			m[l+".cpu_share"] = v
		}
	}
	for _, id := range append(append([]string(nil), figIDs...), "faultsweep", "capsweep") {
		m["experiments.s."+id] = median(td.perIter["experiments.s."+id])
	}
	for _, s := range sinks {
		m["obs."+s+".export_ms"] = median(td.perIter["obs."+s+".export_ms"]) * 1e3
		m["obs."+s+".overhead"] = 1
	}

	b.probePasses(m)
	if b.inst.sinkConfigs != nil {
		b.sinkTable(m)
	}
	var cpu, ping []float64
	for _, p := range b.probes {
		cpu = append(cpu, p.CPUms)
		ping = append(ping, p.PingPong)
	}
	m["host.cpu_probe_ms"] = median(cpu)
	m["host.pingpong_us"] = median(ping)
	return m, nil
}

// probeRounds is how many times the per-frame pass runs each probe; the
// median round counts.
const probeRounds = 3

// probePasses runs the workload's probe configurations alone: first with
// every sink off, timed per simulated frame, then once with spans recorded
// for the virtual per-component counts. Recording must not change any
// measured number.
func (b *bench) probePasses(m map[string]float64) {
	type cost struct{ secs, mallocs []float64 }
	costs := make([]cost, len(b.inst.probes))
	plain := make([]*repro.Result, len(b.inst.probes))
	for round := 0; round < probeRounds; round++ {
		for i, c := range b.inst.probes {
			c.RecordSpans, c.MetricsInterval, c.CritPath = false, 0, false
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			res, killed, err := runProbe(c)
			dt := time.Since(t0).Seconds()
			runtime.ReadMemStats(&m1)
			if !b.check(err) || killed {
				continue
			}
			costs[i].secs = append(costs[i].secs, dt)
			costs[i].mallocs = append(costs[i].mallocs, float64(m1.Mallocs-m0.Mallocs))
			plain[i] = res
		}
	}
	secs, mallocs, frames := map[string]float64{}, map[string]float64{}, map[string]float64{}
	for i, c := range b.inst.probes {
		if len(costs[i].secs) == 0 {
			continue
		}
		k := strings.ToLower(c.Backend.String())
		secs[k] += median(costs[i].secs)
		mallocs[k] += median(costs[i].mallocs)
		frames[k] += float64(c.Pairs * c.Frames)
	}
	for k, n := range frames {
		m["core.us_per_frame."+k] = secs[k] / n * 1e6
		m["core.allocs_per_frame."+k] = mallocs[k] / n
	}

	for i, c := range b.inst.probes {
		c.RecordSpans = true
		res, killed, err := runProbe(c)
		if err == nil && killed != (plain[i] == nil) {
			err = fmt.Errorf("%s: recording spans changed whether the run survived", c.Label())
		}
		if err == nil && !killed {
			var x, y bytes.Buffer
			writeResults(&x, []*repro.Result{plain[i]})
			writeResults(&y, []*repro.Result{res})
			if x.String() != y.String() {
				err = fmt.Errorf("%s: recording spans changed the measured numbers", c.Label())
			}
		}
		if b.check(err) && !killed {
			countResult(m, res)
		}
	}
}

// countResult adds one run's recorded items, virtual per-component work,
// and recovery and capacity counters to m.
func countResult(m map[string]float64, r *repro.Result) {
	m["core.frames"] += float64(r.FramesRead)
	m["core.movement_s"] += (r.Producer.Movement + r.Consumer.Movement).Seconds()
	m["core.idle_s"] += (r.Producer.Idle + r.Consumer.Idle).Seconds()
	m["trace.spans"] += float64(len(r.Spans))
	m["metrics.samples"] += float64(r.Metrics.Len() * len(r.Metrics.Series()))
	if r.Crit != nil {
		for _, f := range r.Crit.Frames {
			m["critpath.lineage_hops"] += float64(len(f.Hops))
		}
	}
	for _, s := range r.Spans {
		switch {
		case s.Component == "dyad":
			m["dyad.ops"]++
		case s.Component == "kvs" && s.Name == "watch_block":
			m["kvs.wait_s"] += s.Dur.Seconds()
		case s.Component == "kvs":
			m["kvs.ops"]++
		case s.Component == "lustre" && (s.Name == "mds_rpc" || s.Name == "ost_rpc"):
			m["lustre.ops"]++
			m["lustre.busy_s"] += s.Dur.Seconds()
		case s.Component == "xfs":
			m["xfs.ops"]++
		case s.Component == "net" && s.Name == "transfer":
			m["cluster.transfers"]++
			m["cluster.bytes"] += float64(s.Bytes)
		}
	}
	m["faults.retries"] += float64(r.Recovery.Retries)
	m["faults.timeouts"] += float64(r.Recovery.Timeouts)
	m["faults.failovers"] += float64(r.Recovery.Failovers)
	m["faults.recovery_s"] += r.Recovery.RecoveryTime.Seconds()
	m["capacity.evictions"] += float64(r.Capacity.Evictions)
	m["capacity.spills"] += float64(r.Capacity.SpilledFrames)
	m["capacity.stall_s"] += float64(r.Capacity.StallNanos) / 1e9
}

// sinkTable times the workload's sink configurations with every sink off
// and with each sink alone on, interleaved over probeRounds rounds.
// overhead is the median host time with the sink on over the median with
// all off; allocs is the difference in median heap allocations.
func (b *bench) sinkTable(m map[string]float64) {
	interval := repro.NewMetricsCollector().SampleInterval()
	modes := append([]string{"off"}, sinks...)
	secs, mallocs := map[string][]float64{}, map[string][]float64{}
	for round := 0; round < probeRounds; round++ {
		for _, mode := range modes {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			var err error
			for _, c := range b.inst.sinkConfigs {
				c.RecordSpans, c.MetricsInterval, c.CritPath = mode == "trace", 0, mode == "critpath"
				if mode == "metrics" {
					c.MetricsInterval = interval
				}
				if _, err = runChecked([]repro.Config{c}); err != nil {
					break
				}
			}
			secs[mode] = append(secs[mode], time.Since(t0).Seconds())
			runtime.ReadMemStats(&m1)
			mallocs[mode] = append(mallocs[mode], float64(m1.Mallocs-m0.Mallocs))
			b.check(err)
		}
	}
	for _, s := range sinks {
		m["obs."+s+".overhead"] = median(secs[s]) / median(secs["off"])
		m["obs."+s+".allocs"] = median(mallocs[s]) - median(mallocs["off"])
	}
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report writes the host record, the per-sample series, and the result line.
func (b *bench) report(stdout io.Writer, defs []metricDef, values map[string]float64) int {
	out := map[string]metric{}
	for _, def := range defs {
		v := values[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.check(fmt.Errorf("%s is %v", def.name, v))
			v = 0
		}
		out[def.name] = metric{v, def.unit}
	}
	series := map[string][]float64{}
	for _, s := range b.samples {
		series["wall_s"] = append(series["wall_s"], s.wall)
		series["cpu_s"] = append(series["cpu_s"], s.cpu)
	}
	for _, p := range b.probes {
		series["probe_cpu_ms"] = append(series["probe_cpu_ms"], p.CPUms)
		series["probe_pingpong_us"] = append(series["probe_pingpong_us"], p.PingPong)
	}
	host, _ := json.Marshal(readHost())
	ser, _ := json.Marshal(struct {
		Series map[string][]float64 `json:"raw"`
		Scale  map[string]float64   `json:"scale"`
	}{series, b.scale})
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, out})
	if err != nil {
		fmt.Fprintln(b.stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host %s\nsamples %s\n%s\n", host, ser, res)
	return 0
}
