package experiment

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// WorkloadStageRow attributes one Figure 7 (workload, config) cell's
// virtualization cycles to the pipeline stages that accrued them — the
// per-workload counterpart of the per-microbenchmark StageBreakdown, and the
// view that makes delivery-stage savings visible per application mix rather
// than per boundary. Guest compute is charged outside transactions, so the
// stage totals decompose the run's virtualization cycles only.
type WorkloadStageRow struct {
	Workload string
	Config   string
	// Total is the run's virtualization cycles: the sum of the stage shares.
	Total sim.Cycles
	// Stages holds the per-stage share of Total, indexed by trace.Stage.
	Stages [trace.NumStages]sim.Cycles
}

// WorkloadStageBreakdown runs every Table 2 application mix over the Figure 7
// configurations with a StageStats attached to the Runner for the whole run.
// Each cell is an isolated World on the worker pool; results return in cell
// order, byte-identical at any width and across plan-cache modes.
func WorkloadStageBreakdown() ([]WorkloadStageRow, error) {
	profiles := workload.Profiles()
	return mapCells(len(figure7Configs)*len(profiles), func(i int) (WorkloadStageRow, error) {
		cfg, p := figure7Configs[i/len(profiles)], profiles[i%len(profiles)]
		st, err := Build(cfg.spec)
		if err != nil {
			return WorkloadStageRow{}, fmt.Errorf("building %s: %w", cfg.label, err)
		}
		ss := &trace.StageStats{}
		r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p, Stages: ss}
		if _, err := r.Run(appTxns); err != nil {
			return WorkloadStageRow{}, fmt.Errorf("%s on %s: %w", p.Name, cfg.label, err)
		}
		row := WorkloadStageRow{Workload: p.Name, Config: cfg.label}
		for s := 0; s < trace.NumStages; s++ {
			row.Stages[s] = ss.StageTotal(s)
			row.Total += row.Stages[s]
		}
		return row, nil
	})
}

// FormatWorkloadStageBreakdown renders the per-workload stage profiles,
// grouped by configuration — rows arrive config-major, workload fastest,
// like runApps orders the figures' bars.
func FormatWorkloadStageBreakdown(rows []WorkloadStageRow) string {
	var b strings.Builder
	b.WriteString("Per-workload stage attribution over the Figure 7 mixes (virtualization cycles per run)\n")
	fmt.Fprintf(&b, "%-16s %-22s %12s", "workload", "config", "total")
	for s := 0; s < trace.NumStages; s++ {
		fmt.Fprintf(&b, " %10s", trace.Stage(s))
	}
	b.WriteByte('\n')
	group := ""
	for _, r := range rows {
		if group != "" && r.Config != group {
			b.WriteByte('\n')
		}
		group = r.Config
		fmt.Fprintf(&b, "%-16s %-22s %12d", r.Workload, r.Config, uint64(r.Total))
		for s := 0; s < trace.NumStages; s++ {
			if c := r.Stages[s]; c != 0 {
				fmt.Fprintf(&b, " %10d", uint64(c))
			} else {
				fmt.Fprintf(&b, " %10s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
