package experiments

import (
	"fmt"
	"strings"

	"repro/internal/caliper"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/stats"
	"repro/internal/thicket"
)

// fig8Pairs is the ensemble size of the model-scaling study (paper: 16
// pairs; with the 8-process-per-node placement that spans 4 nodes).
const fig8Pairs = 16

// Fig8 reproduces Figure 8: molecular model size scaling of DYAD vs Lustre
// across JAC, ApoA1, F1 ATPase, and STMV with Table II strides. Paper
// headlines: producer movement gap grows 2.1x -> 6.3x with model size,
// consumer movement 1.6x -> 6.0x, overall consumption 121.0x -> 333.8x.
func Fig8(o Options) (*Report, error) {
	o = o.Defaults()
	r := &Report{
		ID:      "fig8",
		Title:   "Molecular model size scaling, DYAD vs Lustre (16 pairs)",
		Columns: append([]string{"model", "backend"}, stdCols...),
	}
	type pairAgg struct{ dy, lu core.Aggregate }
	byModel := map[string]*pairAgg{}
	for _, m := range models.Registry() {
		pa := &pairAgg{}
		byModel[m.Name] = pa
		for bi, b := range []core.Backend{core.DYAD, core.Lustre} {
			agg, err := runAgg(core.Config{Backend: b, Model: m, Pairs: fig8Pairs}, o)
			if err != nil {
				return nil, err
			}
			r.Rows = append(r.Rows, append([]string{m.Name, b.String()}, aggRow(agg)...))
			if bi == 0 {
				pa.dy = agg
			} else {
				pa.lu = agg
			}
		}
	}
	small, large := byModel["JAC"], byModel["STMV"]
	r.Notes = append(r.Notes,
		ratioNote("Lustre/DYAD producer movement, JAC", 2.1,
			stats.Ratio(small.lu.ProdMovement.Mean, small.dy.ProdMovement.Mean)),
		ratioNote("Lustre/DYAD producer movement, STMV", 6.3,
			stats.Ratio(large.lu.ProdMovement.Mean, large.dy.ProdMovement.Mean)),
		ratioNote("Lustre/DYAD consumer movement, JAC", 1.6,
			stats.Ratio(small.lu.ConsMovement.Mean, small.dy.ConsMovement.Mean)),
		ratioNote("Lustre/DYAD consumer movement, STMV", 6.0,
			stats.Ratio(large.lu.ConsMovement.Mean, large.dy.ConsMovement.Mean)),
		ratioNote("Lustre/DYAD overall consumption, JAC", 121.0,
			stats.Ratio(small.lu.ConsTotalMean(), small.dy.ConsTotalMean())),
		ratioNote("Lustre/DYAD overall consumption, STMV", 333.8,
			stats.Ratio(large.lu.ConsTotalMean(), large.dy.ConsTotalMean())),
	)
	return r, nil
}

// consumerEnsemble runs one fig8-style configuration with profiles kept and
// ensembles the consumer call trees across pairs and repetitions.
func consumerEnsemble(b core.Backend, model models.Model, o Options) (*thicket.Ensemble, error) {
	// Trees are stable across repetitions; three keep profile memory bounded.
	results, err := o.Run([]Cell{{
		Cfg:  core.Config{Backend: b, Model: model, Pairs: fig8Pairs, KeepProfiles: true},
		Reps: min(o.Reps, 3),
	}})
	if err != nil {
		return nil, err
	}
	var profiles []*caliper.Profile
	for _, res := range results[0] {
		profiles = append(profiles, res.ConsumerProfiles...)
	}
	return thicket.FromProfiles(profiles), nil
}

// Fig9 reproduces Figure 9: the Thicket call-tree analysis of DYAD's
// consumer for JAC vs STMV. Paper headlines: 45.3x more bytes (STMV/JAC)
// costs only ~33.6x more data movement, and the KVS synchronization
// (dyad_fetch) is ~2.1x cheaper for STMV due to reduced KVS stress.
func Fig9(o Options) (*Report, error) {
	o = o.Defaults()
	jac, stmv := mustModel("JAC"), mustModel("STMV")
	ensJAC, err := consumerEnsemble(core.DYAD, jac, o)
	if err != nil {
		return nil, err
	}
	ensSTMV, err := consumerEnsemble(core.DYAD, stmv, o)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:      "fig9",
		Title:   "Thicket call trees: DYAD consumer, JAC vs STMV (16 pairs)",
		Columns: []string{"region", "JAC mean", "STMV mean", "STMV/JAC"},
	}
	regions := []string{"dyad_consume", "dyad_fetch", "dyad_kvs_wait", "dyad_get_data", "dyad_cons_store", "read_single_buf"}
	means := map[string][2]float64{}
	for _, reg := range regions {
		j := ensJAC.MeanOf(reg).Seconds()
		s := ensSTMV.MeanOf(reg).Seconds()
		means[reg] = [2]float64{j, s}
		r.Rows = append(r.Rows, []string{
			reg, stats.FormatSeconds(j), stats.FormatSeconds(s),
			stats.FormatRatio(stats.Ratio(s, j)),
		})
	}
	bytesRatio := float64(stmv.FrameBytes()) / float64(jac.FrameBytes())
	moveJAC := means["dyad_get_data"][0] + means["dyad_cons_store"][0] + means["read_single_buf"][0]
	moveSTMV := means["dyad_get_data"][1] + means["dyad_cons_store"][1] + means["read_single_buf"][1]
	// KVS stress is a steady-state effect: exclude the one-time first-touch
	// pipeline-fill wait (dyad_kvs_wait) from the comparison.
	steadyJAC := means["dyad_fetch"][0] - means["dyad_kvs_wait"][0]
	steadySTMV := means["dyad_fetch"][1] - means["dyad_kvs_wait"][1]
	r.Notes = append(r.Notes,
		fmt.Sprintf("bytes ratio STMV/JAC: %.1fx (paper: 45.3x)", bytesRatio),
		ratioNote("DYAD data movement cost STMV/JAC", 33.6, stats.Ratio(moveSTMV, moveJAC)),
		ratioNote("steady-state KVS sync (dyad_fetch minus first-touch wait) JAC/STMV", 2.1,
			stats.Ratio(steadyJAC, steadySTMV)),
	)
	r.Trees = []string{
		renderTree("DYAD consumer, JAC", ensJAC),
		renderTree("DYAD consumer, STMV", ensSTMV),
		renderComparison("DYAD consumer, JAC vs STMV", ensJAC, ensSTMV),
	}
	return r, nil
}

// Fig10 reproduces Figure 10: the Thicket call-tree analysis of Lustre's
// consumer for JAC vs STMV. Paper headlines: 45.3x more bytes costs ~12.3x
// more movement (read_single_buf) thanks to Lustre's parallelism, while
// explicit_sync stays roughly constant, capping scalability.
func Fig10(o Options) (*Report, error) {
	o = o.Defaults()
	jac, stmv := mustModel("JAC"), mustModel("STMV")
	ensJAC, err := consumerEnsemble(core.Lustre, jac, o)
	if err != nil {
		return nil, err
	}
	ensSTMV, err := consumerEnsemble(core.Lustre, stmv, o)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:      "fig10",
		Title:   "Thicket call trees: Lustre consumer, JAC vs STMV (16 pairs)",
		Columns: []string{"region", "JAC mean", "STMV mean", "STMV/JAC"},
	}
	var moveJAC, moveSTMV, syncJAC, syncSTMV float64
	for _, reg := range []string{"read_single_buf", "explicit_sync"} {
		j := ensJAC.MeanOf(reg).Seconds()
		s := ensSTMV.MeanOf(reg).Seconds()
		if reg == "read_single_buf" {
			moveJAC, moveSTMV = j, s
		} else {
			syncJAC, syncSTMV = j, s
		}
		r.Rows = append(r.Rows, []string{
			reg, stats.FormatSeconds(j), stats.FormatSeconds(s),
			stats.FormatRatio(stats.Ratio(s, j)),
		})
	}
	r.Notes = append(r.Notes,
		ratioNote("Lustre data movement STMV/JAC", 12.3, stats.Ratio(moveSTMV, moveJAC)),
		fmt.Sprintf("explicit_sync STMV/JAC: measured %.2fx (paper: roughly constant)",
			stats.Ratio(syncSTMV, syncJAC)),
	)
	r.Trees = []string{
		renderTree("Lustre consumer, JAC", ensJAC),
		renderTree("Lustre consumer, STMV", ensSTMV),
		renderComparison("Lustre consumer, JAC vs STMV", ensJAC, ensSTMV),
	}
	return r, nil
}

func renderTree(title string, e *thicket.Ensemble) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- %s (%d members) ---\n", title, e.Members())
	e.Render(&sb)
	return sb.String()
}

func renderComparison(title string, a, b *thicket.Ensemble) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- %s ---\n", title)
	thicket.Compare(a, b).Render(&sb, "JAC", "STMV")
	return sb.String()
}
