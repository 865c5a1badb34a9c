package repro

import (
	"bytes"
	"strings"
	"testing"
)

func TestFacadeRunAndAggregate(t *testing.T) {
	jac, err := ModelByName("JAC")
	if err != nil {
		t.Fatal(err)
	}
	results, err := Repeat(Config{Backend: DYAD, Model: jac, Pairs: 2, Frames: 8, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	agg := Aggregated(results)
	if agg.ConsTotalMean() <= 0 {
		t.Fatalf("aggregate %+v", agg)
	}
}

func TestFacadeModels(t *testing.T) {
	if len(Models()) != 4 {
		t.Fatalf("models %d", len(Models()))
	}
	if _, err := ModelByName("STMV"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseBackend("Lustre"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCritPath(t *testing.T) {
	jac, err := ModelByName("JAC")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Backend: DYAD, Model: jac, Pairs: 2, Frames: 8, Seed: 1, CritPath: true, SingleNode: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crit == nil || res.Crit.Path.Makespan != res.Makespan {
		t.Fatalf("Crit summary missing or inconsistent: %+v", res.Crit)
	}
	if len(res.Crit.Frames) != cfg.Pairs*cfg.Frames {
		t.Fatalf("lineages %d, want %d", len(res.Crit.Frames), cfg.Pairs*cfg.Frames)
	}

	// Size-only sweeps (RealFrames=false above) degrade gracefully: full
	// provenance, no payload synthesis, no panic. Diff the DYAD path
	// against an XFS run of the same workload through the facade types.
	xcfg := cfg
	xcfg.Backend = XFS
	xres, err := Run(xcfg)
	if err != nil {
		t.Fatal(err)
	}
	d := DiffCritPaths("dyad", res.Crit.Path, "xfs", xres.Crit.Path)
	if d.Gap <= 0 {
		t.Fatalf("XFS should be slower: gap %v", d.Gap)
	}
	if pct := d.AttributionPct(); pct < 95 {
		t.Fatalf("attribution %.1f%%, want >= 95%%", pct)
	}

	// CritPath+TraceStream is rejected up front, not at run time.
	bad := cfg
	bad.TraceStream = NewChromeTraceStream(&bytes.Buffer{})
	if err := bad.Validate(); err == nil {
		t.Fatal("CritPath+TraceStream validated, want rejection")
	}
}

func TestFacadeExplainWorkloads(t *testing.T) {
	ids := map[string]bool{}
	for _, w := range ExplainWorkloads() {
		ids[w.ID] = true
	}
	for _, want := range []string{"fig5", "fig6"} {
		if !ids[want] {
			t.Errorf("explain workload %s missing", want)
		}
	}
	rep, err := ExplainBackends("fig5", ExperimentOptions{Quick: true, Reps: 1, Frames: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderReport(&buf, rep)
	for _, want := range []string{"explain:fig5", "attribution:", "gap_share"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("explain report missing %q", want)
		}
	}
	if _, err := ExplainBackends("nope", ExperimentOptions{}); err == nil {
		t.Fatal("unknown explain target accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFacadeExperiments(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"} {
		if !ids[want] {
			t.Errorf("experiment %s missing", want)
		}
	}
	rep, err := RunExperiment("table1", ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderReport(&buf, rep)
	if !strings.Contains(buf.String(), "JAC") {
		t.Fatal("rendered table1 missing JAC")
	}
	if _, err := RunExperiment("nope", ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
