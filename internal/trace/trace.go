// Package trace is the deterministic virtual-time span tracer of the
// simulation substrate. Every modeled operation — an SSD read, a network
// transfer, an RPC, a KVS lookup, a journal commit, a recovery wait —
// can emit one Span stamped from the virtual clock. Because spans carry
// only virtual timestamps and are appended in event-execution order,
// a run's span stream is a pure function of (config, seed): byte-identical
// across worker counts and across hosts.
//
// Tracing is a zero-cost abstraction when disabled: the Recorder is used
// through a nil pointer, Emit on a nil Recorder returns immediately, and
// Span values passed by value never escape to the heap. The steady-state
// allocation budget of DESIGN.md §3c is unchanged with tracing off.
//
// Span classes implement the paper's time-decomposition methodology
// (Figs. 4-7): ClassMovement/ClassIdle/ClassCompute spans are emitted at
// workflow level and are disjoint in time, so summing them per class
// gives the movement-vs-idle split, which the simulator reads from the
// same regions' per-process tallies (sim.Proc.Tally). ClassRecovery
// spans mark fault-recovery waits (timeouts, backoff, failover, link
// stalls); they nest inside workflow spans and are reported as a separate
// overlapping column, mirroring faults.Metrics.RecoveryTime. ClassDetail
// spans are fine-grained component operations for the Chrome timeline;
// they are excluded from the breakdown sums.
package trace

import "time"

// Class tags how a span participates in the paper-style time breakdown.
type Class uint8

const (
	// ClassDetail marks fine-grained component operations (SSD I/O, wire
	// transfers, RPC legs, journal commits). Detail spans nest inside
	// workflow spans and are excluded from breakdown sums.
	ClassDetail Class = iota
	// ClassMovement marks workflow-level data-movement time (the paper's
	// "data movement": write/read/produce/consume call time).
	ClassMovement
	// ClassIdle marks workflow-level synchronization idle time (explicit
	// sync waits, DYAD metadata fetch waits).
	ClassIdle
	// ClassCompute marks modeled application compute (MD step time,
	// serialization, analytics).
	ClassCompute
	// ClassRecovery marks fault-recovery waits (RPC timeouts, retry
	// backoff, failover, link stalls, degraded reads). Recovery spans
	// overlap movement/idle spans and are reported as their own column.
	ClassRecovery
	// ClassBackpressure marks producer stalls against a full finite-capacity
	// staging store (internal/capacity): the writer blocked until
	// consumption or eviction freed space. Like recovery, back-pressure
	// spans overlap movement spans and get their own breakdown column.
	ClassBackpressure
)

// String returns the class name used in call paths and trace categories.
func (c Class) String() string {
	switch c {
	case ClassMovement:
		return "movement"
	case ClassIdle:
		return "idle"
	case ClassCompute:
		return "compute"
	case ClassRecovery:
		return "recovery"
	case ClassBackpressure:
		return "backpressure"
	default:
		return "detail"
	}
}

// Span is one modeled operation on the virtual timeline. Start is virtual
// time since the beginning of the run; Dur is the operation's virtual
// duration (zero for instantaneous markers). Bytes is the payload moved,
// when the operation moves data. Attr is an optional free-form attribute
// (a device name, a file path, a fault target).
type Span struct {
	Proc      string
	Component string
	Name      string
	Class     Class
	Start     time.Duration
	Dur       time.Duration
	Bytes     int64
	Attr      string
}

// Recorder accumulates the spans of one run. The zero value is ready to
// use. A nil *Recorder is valid and inert: every method is nil-safe, so
// instrumentation sites call Emit unconditionally and pay only a nil check
// when tracing is off.
//
// A recorder returned by ChromeStream.StartRun runs in streaming mode:
// spans are serialized the moment they are emitted and never retained.
// Streaming recorder memory is O(distinct procs) regardless of run
// length — the bounded-memory mode for million-event runs.
type Recorder struct {
	spans []Span

	// Streaming mode (ChromeStream.StartRun); nil for buffered recorders.
	stream *ChromeStream
	pid    int
	tids   map[string]int // proc -> Chrome tid, in first-appearance order
}

// NewRecorder returns an empty buffered recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Reset empties a buffered recorder for its next run, keeping the span
// array, so a reused recorder grows only past the largest run it served.
// Spans returned before the Reset are overwritten by the next run's.
func (r *Recorder) Reset() { r.spans = r.spans[:0] }

// Emit records one span: appended in buffered mode, serialized to the
// Chrome stream in streaming mode. On a nil recorder it is a no-op; the span value stays on the
// caller's stack, so disabled tracing allocates nothing.
func (r *Recorder) Emit(s Span) {
	if r == nil {
		return
	}
	if r.stream != nil {
		r.stream.span(r, s)
		return
	}
	r.spans = append(r.spans, s)
}

// Streaming reports whether the recorder serializes spans on emission
// instead of retaining them (false on a nil recorder).
func (r *Recorder) Streaming() bool { return r != nil && r.stream != nil }

// Spans returns the recorded spans in emission order (event-execution
// order, deterministic). The slice is owned by the recorder and valid
// until its next Reset; copy it to keep it.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// HistBuckets is the number of log-scale duration histogram buckets:
// bucket i counts durations d with 4^(i-1)µs <= d < 4^i µs (bucket 0 is
// d < 1µs, the last bucket is unbounded).
const HistBuckets = 9

// HistBucket maps a duration to its log-scale histogram bucket. The
// bucketing is shared by metrics.Histogram and the critical-path slack
// histogram; HistogramPercentile estimates percentiles over either.
func HistBucket(d time.Duration) int {
	us := d.Microseconds()
	b := 0
	for us > 0 && b < HistBuckets-1 {
		us >>= 2
		b++
	}
	return b
}

// histBucketLo returns bucket b's inclusive lower duration bound.
func histBucketLo(b int) time.Duration {
	if b <= 0 {
		return 0
	}
	return time.Duration(int64(1)<<(2*uint(b-1))) * time.Microsecond // 4^(b-1)µs
}

// histBucketHi returns bucket b's exclusive upper duration bound, or max
// for the unbounded last bucket.
func histBucketHi(b int, max time.Duration) time.Duration {
	if b >= HistBuckets-1 {
		return max
	}
	return time.Duration(int64(1)<<(2*uint(b))) * time.Microsecond // 4^b µs
}

// HistogramPercentile estimates the p-th percentile (0-100) of a log-scale
// duration histogram with the given observation count and observed min/max.
// It walks the buckets to the one containing the fractional target rank and
// interpolates linearly inside it, with the bucket's bounds tightened to
// [min, max]. Accuracy is bounded by bucket width (a factor of 4), exact
// when all observations share one bucket clamped by min==max. Deterministic:
// pure integer/float arithmetic over the counts.
func HistogramPercentile(hist *[HistBuckets]int64, count int64, min, max time.Duration, p float64) time.Duration {
	if count <= 0 {
		return 0
	}
	if p <= 0 {
		return min
	}
	if p >= 100 {
		return max
	}
	target := p / 100 * float64(count)
	var cum int64
	for b := 0; b < HistBuckets; b++ {
		n := hist[b]
		if n == 0 {
			continue
		}
		if float64(cum+n) < target {
			cum += n
			continue
		}
		lo, hi := histBucketLo(b), histBucketHi(b, max)
		if lo < min {
			lo = min
		}
		if hi > max {
			hi = max
		}
		if hi < lo {
			hi = lo
		}
		frac := (target - float64(cum)) / float64(n)
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return max
}
