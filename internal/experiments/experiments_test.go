package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// quickOpts keeps experiment tests fast while exercising the full paths.
func quickOpts() Options {
	return Options{Quick: true, Reps: 1, Frames: 6}
}

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(quickOpts())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if rep.ID != e.ID {
				t.Errorf("report id %q, want %q", rep.ID, e.ID)
			}
			if len(rep.Rows) == 0 {
				t.Error("no rows")
			}
			for _, row := range rep.Rows {
				if len(row) != len(rep.Columns) {
					t.Errorf("row width %d, columns %d", len(row), len(rep.Columns))
				}
			}
			var buf bytes.Buffer
			rep.Render(&buf)
			if !strings.Contains(buf.String(), e.ID) {
				t.Error("render missing experiment id")
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig5"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTable1MatchesRegistryOrder(t *testing.T) {
	rep, err := Table1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 || rep.Rows[0][0] != "JAC" || rep.Rows[3][0] != "STMV" {
		t.Fatalf("table1 rows %v", rep.Rows)
	}
}

func TestTable2FrequenciesEqualized(t *testing.T) {
	rep, err := Table2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		freq := row[len(row)-1]
		if !strings.HasPrefix(freq, "0.8") && !strings.HasPrefix(freq, "0.79") {
			t.Errorf("%s frequency %s, want ~0.82", row[0], freq)
		}
	}
}

func TestFig5RowsCoverBothBackendsAndSizes(t *testing.T) {
	rep, err := fig5Spec.run(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 { // 3 sizes x 2 backends
		t.Fatalf("fig5 rows %d, want 6", len(rep.Rows))
	}
	if len(rep.Notes) < 3 {
		t.Fatalf("fig5 notes %d, want >= 3 headline ratios", len(rep.Notes))
	}
}

func TestFig9ProducesTrees(t *testing.T) {
	rep, err := Fig9(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trees) != 3 {
		t.Fatalf("fig9 trees %d, want 3", len(rep.Trees))
	}
	for _, tree := range rep.Trees {
		for _, region := range []string{"dyad_consume", "dyad_fetch", "read_single_buf"} {
			if !strings.Contains(tree, region) {
				t.Errorf("tree missing region %s", region)
			}
		}
	}
}

func TestFig10TreesShowExplicitSync(t *testing.T) {
	rep, err := Fig10(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range rep.Trees {
		if !strings.Contains(tree, "explicit_sync") {
			t.Error("tree missing explicit_sync")
		}
	}
}

// The head start is part of the sweep protocol, so it reaches the call-tree
// figures too: delaying each consumer changes what it waits for.
func TestHeadStartReachesCallTreeFigures(t *testing.T) {
	render := func(run func(Options) (*Report, error), headStart time.Duration) string {
		t.Helper()
		o := quickOpts()
		o.ConsumerHeadStart = headStart
		rep, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep.Render(&buf)
		return buf.String()
	}
	for id, run := range map[string]func(Options) (*Report, error){"fig9": Fig9, "fig10": Fig10} {
		if render(run, 0) == render(run, 375*time.Millisecond) {
			t.Errorf("%s: report unchanged by a 375ms consumer head start", id)
		}
	}
}

func TestQuickShrinksFig7(t *testing.T) {
	rep, err := fig7Spec.run(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if row[1] == "128" || row[1] == "256" {
			t.Fatal("quick mode ran a large ensemble")
		}
	}
}

func TestReportWriteCSV(t *testing.T) {
	rep, err := Table1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // header + 4 models
		t.Fatalf("csv lines %d, want 5:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "Name,") {
		t.Fatalf("csv header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "JAC,") {
		t.Fatalf("csv first row %q", lines[1])
	}
}

func TestStragglerReportShape(t *testing.T) {
	rep, err := Straggler(Options{Quick: true, Reps: 1, Frames: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 { // {DYAD,Lustre} x {healthy,injected}
		t.Fatalf("straggler rows %d, want 4", len(rep.Rows))
	}
	if len(rep.Notes) < 3 {
		t.Fatalf("straggler notes %d", len(rep.Notes))
	}
}

func TestAblationReportShape(t *testing.T) {
	rep, err := Ablation(Options{Quick: true, Reps: 1, Frames: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 7 { // 5 DYAD variants + coarse-sync + Lustre
		t.Fatalf("ablation rows %d, want 7", len(rep.Rows))
	}
}

// Regression: a row wider than Columns used to panic in Render's writeRow
// (the width computation guarded the index, the writer did not). Ragged
// reports must render and serialize, not crash.
func TestReportRaggedRowRenders(t *testing.T) {
	rep := &Report{
		ID:      "ragged",
		Title:   "ragged rows",
		Columns: []string{"a", "b"},
		Rows: [][]string{
			{"1", "2"},
			{"1", "2", "extra"}, // wider than Columns
			{"only"},            // narrower than Columns
		},
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	for _, want := range []string{"extra", "only"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render output missing cell %q:\n%s", want, buf.String())
		}
	}

	var csvBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatalf("WriteCSV on ragged report: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("csv lines %d, want 4:\n%s", len(lines), csvBuf.String())
	}
	if lines[2] != "1,2,extra" {
		t.Errorf("csv ragged row %q, want %q", lines[2], "1,2,extra")
	}
}
