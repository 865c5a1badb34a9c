package analytics

import (
	"testing"

	"repro/internal/frame"
)

// BenchmarkRadiusOfGyration measures Rg over a JAC-sized frame.
func BenchmarkRadiusOfGyration(b *testing.B) {
	b.ReportAllocs()
	f := frame.NewSynthetic("JAC", 1, 23_558, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RadiusOfGyration(f)
	}
}

// BenchmarkLargestEigenvalue measures the gyration-tensor analysis.
func BenchmarkLargestEigenvalue(b *testing.B) {
	b.ReportAllocs()
	f := frame.NewSynthetic("JAC", 1, 23_558, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = LargestEigenvalue(f, nil)
	}
}
