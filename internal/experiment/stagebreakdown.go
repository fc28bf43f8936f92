package experiment

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// StageBreakdownRow splits one Table 3 cell — a microbenchmark's average
// cycles under one configuration — across the pipeline stages that accrued
// them: the answer to "where do the L3 hypercall's 951k cycles go — route,
// forward, or deliver?". Stage cycles sum exactly to the Table 3 value
// (costs are deterministic, so per-iteration averages are exact), which the
// breakdown tests assert cell by cell.
type StageBreakdownRow struct {
	Micro  string
	Config string
	// Total is the Table 3 value: average cycles per operation.
	Total sim.Cycles
	// Stages holds the per-stage share of Total, indexed by trace.Stage.
	Stages [trace.NumStages]sim.Cycles
	// Stats is the cell's raw per-stage attribution (histograms included),
	// for merged views; cells are independent Worlds, so rows merge cleanly.
	Stats *trace.StageStats
}

// stageConfigs are the Table 3 columns, labeled as the paper prints them.
var stageConfigs = []appConfig{
	{"VM", Spec{Depth: 1, IO: IOParavirt}},
	{"nested VM", Spec{Depth: 2, IO: IOParavirt}},
	{"nested+DVH", Spec{Depth: 2, IO: IODVH}},
	{"L3 VM", Spec{Depth: 3, IO: IOParavirt}},
	{"L3+DVH", Spec{Depth: 3, IO: IODVH}},
}

// StageBreakdown measures the per-stage cycle attribution of every Table 3
// cell. Each cell builds its own isolated stack with a private StageStats
// attached around exactly the measured operations, fans out across the
// harness worker pool, and returns in cell order — byte-identical at any
// -parallel width, and identical whether forwarded exits replay compiled
// plans or run the live recursion (both charge the same StageForward lump).
func StageBreakdown() ([]StageBreakdownRow, error) {
	return StageBreakdownUnder("")
}

// StageBreakdownUnder is StageBreakdown with every cell built under the named
// calibration profile ("" selects the harness default) — the unit of the
// -stages sweep, which re-derives the attribution on each registered testbed.
func StageBreakdownUnder(profileName string) ([]StageBreakdownRow, error) {
	micros := workload.Micros()
	return mapCells(len(stageConfigs)*len(micros), func(i int) (StageBreakdownRow, error) {
		m, cfg := micros[i/len(stageConfigs)], stageConfigs[i%len(stageConfigs)]
		spec := cfg.spec
		spec.Profile = profileName
		st, err := Build(spec)
		if err != nil {
			return StageBreakdownRow{}, err
		}
		ss := &trace.StageStats{}
		avg, err := workload.RunMicroObserved(st.World, st.Target.VCPUs[0], m, st.Net, microIters, ss)
		if err != nil {
			return StageBreakdownRow{}, fmt.Errorf("stage breakdown %v on %s: %w", m, cfg.label, err)
		}
		row := StageBreakdownRow{Micro: m.String(), Config: cfg.label, Total: avg, Stats: ss}
		for s := 0; s < trace.NumStages; s++ {
			// Deterministic costs make every iteration identical, so the
			// division is exact and the stage shares sum back to Total.
			row.Stages[s] = ss.StageTotal(s) / microIters
		}
		return row, nil
	})
}

// MergedStageStats folds every cell's attribution into one StageStats, in
// row order — the whole-matrix per-stage histogram view.
func MergedStageStats(rows []StageBreakdownRow) *trace.StageStats {
	merged := &trace.StageStats{}
	for _, r := range rows {
		merged.Merge(r.Stats)
	}
	return merged
}

// FormatStageBreakdown renders the stacked per-stage table, grouped by
// microbenchmark like the paper groups Table 3 rows.
func FormatStageBreakdown(rows []StageBreakdownRow) string {
	var b strings.Builder
	b.WriteString("Per-stage cycle attribution of Table 3 (cycles/op; stages sum to the Table 3 value)\n")
	fmt.Fprintf(&b, "%-14s %-12s %10s", "benchmark", "config", "total")
	for s := 0; s < trace.NumStages; s++ {
		fmt.Fprintf(&b, " %10s", trace.Stage(s))
	}
	b.WriteByte('\n')
	group := ""
	for _, r := range rows {
		if group != "" && r.Micro != group {
			b.WriteByte('\n')
		}
		group = r.Micro
		fmt.Fprintf(&b, "%-14s %-12s %10d", r.Micro, r.Config, uint64(r.Total))
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
