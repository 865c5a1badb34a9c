package experiments

import (
	"fmt"
	"strings"

	"repro/internal/models"
)

// The paper's Table I frame sizes (KiB). Its Table II frequency is
// models.Table2FreqS.
var table1PaperKiB = map[string]float64{"JAC": 644.21, "ApoA1": 2.46 * 1024, "F1 ATPase": 8.75 * 1024, "STMV": 28.48 * 1024}

// tableValue is one Table I/II entry: the paper's number and the model's.
type tableValue struct {
	name         string
	paper, model float64
}

// tableValues lists Table I's frame sizes (KiB), then Table II's
// frequencies (seconds), each in Registry order.
func tableValues() []tableValue {
	var tv []tableValue
	for _, m := range models.Registry() {
		tv = append(tv, tableValue{"table1.frame_kib." + m.Name, table1PaperKiB[m.Name], float64(m.FrameBytes()) / 1024})
	}
	for _, m := range models.Registry() {
		tv = append(tv, tableValue{"table2.freq_s." + m.Name, models.Table2FreqS, m.DefaultFrequency().Seconds()})
	}
	return tv
}

// Table1 regenerates Table I: the molecular model characteristics.
func Table1(o Options) (*Report, error) {
	r := &Report{
		ID:      "table1",
		Title:   "Targeted molecular models",
		Columns: []string{"Name", "Num Atoms", "Frame size", "Steps/second"},
	}
	var paper []string
	for _, m := range models.Registry() {
		r.Rows = append(r.Rows, []string{
			m.Name,
			fmt.Sprintf("%d", m.Atoms),
			humanSize(float64(m.FrameBytes())),
			fmt.Sprintf("%.2f", m.StepsPerSecond),
		})
		paper = append(paper, humanSize(table1PaperKiB[m.Name]*1024))
	}
	r.Notes = append(r.Notes,
		"frame sizes derive from the 28-byte/atom wire format; paper values: "+strings.Join(paper, ", "))
	return r, nil
}

// Table2 regenerates Table II: strides equalizing generation frequency.
func Table2(o Options) (*Report, error) {
	r := &Report{
		ID:      "table2",
		Title:   "Stride for each molecular model",
		Columns: []string{"Name", "Steps/second", "ms/step", "Stride", "Frequency (s)"},
	}
	for _, m := range models.Registry() {
		r.Rows = append(r.Rows, []string{
			m.Name,
			fmt.Sprintf("%.2f", m.StepsPerSecond),
			fmt.Sprintf("%.2f", m.MsPerStep()),
			fmt.Sprintf("%d", m.Stride),
			fmt.Sprintf("%.2f", m.DefaultFrequency().Seconds()),
		})
	}
	r.Notes = append(r.Notes, fmt.Sprintf("paper frequency column: %.2f s for every model", models.Table2FreqS))
	return r, nil
}

// humanSize renders bytes in KiB/MiB as the paper does.
func humanSize(n float64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", n/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", n/(1<<10))
	}
	return fmt.Sprintf("%.0f B", n)
}
