package critpath

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/trace"
)

// benchGraph builds a pairs-wide coarse-sync graph with frames release
// edges per pair — the shape Extract walks on real runs.
func benchGraph(pairs, frames int) *Graph {
	r := NewRecorder()
	period := time.Millisecond
	for pair := 0; pair < pairs; pair++ {
		prod, cons := int32(2*pair), int32(2*pair+1)
		r.StartProc(prod, fmt.Sprintf("producer%03d", pair), -1, 0)
		r.StartProc(cons, fmt.Sprintf("consumer%03d", pair), -1, 0)
		r.Begin(cons, "workflow", "explicit_sync", trace.ClassIdle, 0)
		t := Time(0)
		for f := 0; f < frames; f++ {
			r.Begin(prod, "workflow", "md_compute", trace.ClassCompute, t)
			r.BeginWait(cons, t)
			t += period
			r.End(prod, t)
			r.Release(prod, cons, t)
			r.EndWait(cons, t)
			r.Begin(cons, "workflow", "analytics", trace.ClassCompute, t)
			r.End(cons, t+period/2)
			r.BeginWait(cons, t+period/2)
		}
		r.EndWait(cons, t+period)
		r.EndProc(prod, t)
		r.EndProc(cons, t+period)
	}
	return r.Finish(Time(frames+1) * period)
}

// BenchmarkCritpathExtract measures the backward walk plus blame fold over
// a 4-pair, 128-frame coarse-sync graph (the fig5 paper shape).
func BenchmarkCritpathExtract(b *testing.B) {
	g := benchGraph(4, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := Extract(g)
		if cp.Makespan == 0 {
			b.Fatal("empty extraction")
		}
	}
}

// BenchmarkProvenanceRecord measures the enabled-path recording cost of
// one frame's full lineage (produce + 4 hops + dep), the per-frame work a
// recording run adds on top of the simulation.
func BenchmarkProvenanceRecord(b *testing.B) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("/ensemble/pair%03d/frame%05d.pb", i%8, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRecorder()
		r.StartProc(0, "producer000", -1, 0)
		r.StartProc(1, "consumer000", -1, 0)
		for j, key := range keys {
			at := Time(j) * time.Millisecond
			r.Produce(key, at)
			r.Hop(key, "write", 0, at, at+time.Microsecond, 659655)
			r.Hop(key, "kvs_commit", 0, at, at+time.Microsecond, 16)
			r.Hop(key, "transfer", 1, at, at+time.Microsecond, 659655)
			r.Hop(key, "read", 1, at, at+time.Microsecond, 659655)
			r.Depend(key, at+2*time.Microsecond)
		}
	}
}
