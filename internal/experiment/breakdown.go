package experiment

import (
	"fmt"
	"strings"

	"repro/internal/workload"
)

// BreakdownRow attributes one workload's per-transaction virtualization
// cycles to the mechanism that spent them under one configuration — the
// causal view behind Figure 8: each DVH technique removes one column's
// cycles.
type BreakdownRow struct {
	Workload string
	Config   string
	// PerTxn is the average cycles per transaction, indexed by op class.
	PerTxn [workload.NumOpClasses]float64
	// WorkCycles is the native compute per transaction, for scale.
	WorkCycles float64
}

// Breakdown measures where the cycles go for every workload under the
// nested paravirtual baseline, DVH-VP, and full DVH.
func Breakdown() ([]BreakdownRow, error) {
	configs := []appConfig{
		{"Nested VM", Spec{Depth: 2, IO: IOParavirt}},
		{"Nested VM+DVH-VP", Spec{Depth: 2, IO: IODVHVP}},
		{"Nested VM+DVH", Spec{Depth: 2, IO: IODVH}},
	}
	profiles := workload.Profiles()
	return mapCells(len(configs)*len(profiles), func(i int) (BreakdownRow, error) {
		cfg, p := configs[i/len(profiles)], profiles[i%len(profiles)]
		st, err := Build(cfg.spec)
		if err != nil {
			return BreakdownRow{}, err
		}
		r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p}
		res, err := r.Run(appTxns)
		if err != nil {
			return BreakdownRow{}, fmt.Errorf("%s on %s: %w", p.Name, cfg.label, err)
		}
		row := BreakdownRow{Workload: p.Name, Config: cfg.label, WorkCycles: float64(p.WorkCycles)}
		for c, cycles := range res.Breakdown {
			row.PerTxn[c] = float64(cycles) / float64(res.Transactions)
		}
		return row, nil
	})
}

// breakdownOps fixes the column order of the report.
var breakdownOps = []workload.OpClass{
	workload.OpClassKick, workload.OpClassRX, workload.OpClassBlk, workload.OpClassTimer,
	workload.OpClassIPI, workload.OpClassIdle, workload.OpClassEOI,
}

// FormatBreakdown renders the attribution as cycles-per-transaction columns.
func FormatBreakdown(rows []BreakdownRow) string {
	var b strings.Builder
	b.WriteString("Virtualization cycles per transaction by mechanism\n")
	byWorkload := map[string][]BreakdownRow{}
	var order []string
	for _, r := range rows {
		if _, ok := byWorkload[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, w := range order {
		fmt.Fprintf(&b, "%s (native work %v cycles/txn)\n", w, byWorkload[w][0].WorkCycles)
		fmt.Fprintf(&b, "  %-20s", "")
		for _, op := range breakdownOps {
			fmt.Fprintf(&b, " %10v", op)
		}
		b.WriteByte('\n')
		for _, r := range byWorkload[w] {
			fmt.Fprintf(&b, "  %-20s", r.Config)
			for _, op := range breakdownOps {
				if v := r.PerTxn[op]; v > 0 {
					fmt.Fprintf(&b, " %10.0f", v)
				} else {
					fmt.Fprintf(&b, " %10s", "-")
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// BreakdownOf finds one row.
func BreakdownOf(rows []BreakdownRow, workloadName, config string) (BreakdownRow, bool) {
	for _, r := range rows {
		if r.Workload == workloadName && r.Config == config {
			return r, true
		}
	}
	return BreakdownRow{}, false
}
