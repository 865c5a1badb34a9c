package trace

import (
	"math"
	"testing"
	"time"

	"repro/internal/stats"
)

// histOf builds a histogram plus the (count, min, max) sidecar from raw
// observations, the way metrics.Histogram does.
func histOf(durs []time.Duration) (hist [HistBuckets]int64, count int64, min, max time.Duration) {
	for _, d := range durs {
		if count == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
		count++
		hist[HistBucket(d)]++
	}
	return
}

func TestHistogramPercentileEdges(t *testing.T) {
	hist, count, min, max := histOf([]time.Duration{3 * time.Microsecond, 90 * time.Microsecond, 2 * time.Millisecond})
	if got := HistogramPercentile(&hist, 0, 0, 0, 50); got != 0 {
		t.Fatalf("empty histogram percentile = %v, want 0", got)
	}
	if got := HistogramPercentile(&hist, count, min, max, 0); got != min {
		t.Fatalf("P0 = %v, want min %v", got, min)
	}
	if got := HistogramPercentile(&hist, count, min, max, -5); got != min {
		t.Fatalf("P(-5) = %v, want min %v", got, min)
	}
	if got := HistogramPercentile(&hist, count, min, max, 100); got != max {
		t.Fatalf("P100 = %v, want max %v", got, max)
	}
	if got := HistogramPercentile(&hist, count, min, max, 140); got != max {
		t.Fatalf("P140 = %v, want max %v", got, max)
	}
}

// TestHistogramPercentileSingleValueExact pins the exactness guarantee for
// degenerate distributions: when every observation is the same duration,
// min==max clamps the containing bucket to a point and every percentile is
// that duration — matching exact stats.Percentile with zero error.
func TestHistogramPercentileSingleValueExact(t *testing.T) {
	d := 37 * time.Microsecond
	hist, count, min, max := histOf([]time.Duration{d, d, d, d, d})
	exact := []float64{float64(d), float64(d), float64(d), float64(d), float64(d)}
	for _, p := range []float64{1, 25, 50, 75, 99} {
		got := HistogramPercentile(&hist, count, min, max, p)
		want := time.Duration(stats.Percentile(exact, p))
		if got != want {
			t.Errorf("p%v = %v, want exact %v", p, got, want)
		}
	}
}

// TestHistogramPercentileMonotone checks percentile estimates never
// decrease in p and always stay inside [min, max], on a synthetic
// long-tailed distribution spanning several buckets.
func TestHistogramPercentileMonotone(t *testing.T) {
	var durs []time.Duration
	for i := 0; i < 200; i++ {
		durs = append(durs, time.Duration(1+i*i*i)*time.Microsecond/4)
	}
	hist, count, min, max := histOf(durs)
	prev := time.Duration(-1)
	for p := 0.0; p <= 100; p += 0.5 {
		got := HistogramPercentile(&hist, count, min, max, p)
		if got < prev {
			t.Fatalf("p%v = %v < p%v = %v: not monotone", p, got, p-0.5, prev)
		}
		if got < min || got > max {
			t.Fatalf("p%v = %v outside [%v, %v]", p, got, min, max)
		}
		prev = got
	}
}

// TestHistogramPercentileBucketBoundError quantifies the estimator against
// exact stats.Percentile on synthetic uniform data: the estimate must land
// inside the same log-scale bucket span as the exact answer — the factor-of-
// four accuracy bound the bucketing promises.
func TestHistogramPercentileBucketBoundError(t *testing.T) {
	var durs []time.Duration
	var exact []float64
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * 10 * time.Microsecond // uniform 10µs..10ms
		durs = append(durs, d)
		exact = append(exact, float64(d))
	}
	hist, count, min, max := histOf(durs)
	for _, p := range []float64{1, 10, 25, 50, 75, 90, 99} {
		got := HistogramPercentile(&hist, count, min, max, p)
		want := time.Duration(stats.Percentile(exact, p))
		// Same-bucket bound: estimate and exact answer agree to within the
		// exact answer's bucket width (up to 4x below or above).
		lo, hi := want/4, want*4
		if got < lo || got > hi {
			t.Errorf("p%v estimate %v outside factor-4 band of exact %v", p, got, want)
		}
		// And interpolation should do much better than the worst case on
		// uniform data: within 35%% relative error.
		if relErr := math.Abs(float64(got)-float64(want)) / float64(want); relErr > 0.35 {
			t.Errorf("p%v estimate %v vs exact %v: relative error %.2f", p, got, want, relErr)
		}
	}
}
