package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std %v, want sqrt(2.5)", s.Std)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty summary %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.Min != 7 || s.Max != 7 {
		t.Fatalf("singleton summary %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile")
	}
}

func TestRatioAndFormat(t *testing.T) {
	if Ratio(10, 2) != 5 {
		t.Fatal("ratio")
	}
	if !math.IsNaN(Ratio(1, 0)) {
		t.Fatal("zero denominator should be NaN")
	}
	if FormatRatio(5.25) != "5.2x" && FormatRatio(5.25) != "5.3x" {
		t.Fatalf("FormatRatio = %q", FormatRatio(5.25))
	}
	if FormatRatio(math.NaN()) != "n/a" {
		t.Fatal("NaN ratio format")
	}
}

func TestFormatRatioPrec(t *testing.T) {
	if got := FormatRatioPrec(1.2345, 2); got != "1.23x" {
		t.Fatalf("FormatRatioPrec(1.2345, 2) = %q", got)
	}
	if got := FormatRatioPrec(192.9, 1); got != "192.9x" {
		t.Fatalf("FormatRatioPrec(192.9, 1) = %q", got)
	}
	for _, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := FormatRatioPrec(r, 2); got != "n/a" {
			t.Fatalf("FormatRatioPrec(%v, 2) = %q, want n/a", r, got)
		}
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		5e-6:    "5.0µs",
		1.5e-3:  "1.50ms",
		2.25:    "2.250s",
		0.04861: "48.61ms",
	}
	for in, want := range cases {
		if got := FormatSeconds(in); got != want {
			t.Errorf("FormatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

// Property: mean lies within [min, max], and percentiles are monotone.
func TestSummaryInvariantsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				return true // skip inputs whose sum overflows float64
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		last := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(sorted, p)
			if v < last-1e-9 {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Regression: one NaN observation used to poison the whole summary — the
// running sum made Mean and Std NaN, and sort.Float64s' undefined NaN
// ordering corrupted Min and Max. NaNs must be filtered and counted.
func TestSummarizeFiltersNaNs(t *testing.T) {
	nan := math.NaN()
	s := Summarize([]float64{nan, 1, 2, nan, 3, 4, 5, nan})
	if s.NaNs != 3 {
		t.Fatalf("NaNs=%d, want 3", s.NaNs)
	}
	if s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("stats over defined values wrong: %+v", s)
	}
	if math.IsNaN(s.Std) || s.Std == 0 {
		t.Fatalf("Std = %v, want finite nonzero", s.Std)
	}
}

// An all-NaN sample has nothing to summarize: zeros plus the NaN count.
func TestSummarizeAllNaNs(t *testing.T) {
	nan := math.NaN()
	s := Summarize([]float64{nan, nan})
	if s.NaNs != 2 {
		t.Fatalf("NaNs=%d, want 2", s.NaNs)
	}
	if s.Mean != 0 || s.Std != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("all-NaN summary not zero: %+v", s)
	}
}

// A NaN-free sample must summarize exactly as before the NaN filter —
// no spurious NaNs counter, identical float accumulation order.
func TestSummarizeNaNFreeUnchanged(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.3, 0.4}
	s := Summarize(xs)
	if s.NaNs != 0 {
		t.Fatalf("NaN-free sample: NaNs=%d", s.NaNs)
	}
	want := (0.1 + 0.2 + 0.3 + 0.4) / 4 // same left-to-right summation
	if s.Mean != want {
		t.Fatalf("Mean = %v, want %v (bit-exact)", s.Mean, want)
	}
}

func TestPercentileNaNP(t *testing.T) {
	if got := Percentile([]float64{1, 2, 3}, math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Percentile with NaN p = %v, want NaN", got)
	}
}
