package experiment

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/workload"
)

// stormEvents sizes a delivery-storm run. Costs are deterministic, so the
// average converges as soon as every event shape has fired; a multiple of
// the storms' idle periods (4 and 2) keeps the wake/no-wake mix exact.
const stormEvents = 64

// StormRow is one delivery-storm workload across the Table 3 configurations,
// in average cycles per delivered event — the end-to-end view of what the
// delivery paths (injection, cascade, wake) cost at each depth and how much
// of it DVH removes.
type StormRow struct {
	Name    string
	VM      sim.Cycles
	Nested  sim.Cycles
	NestedD sim.Cycles // nested + DVH
	L3      sim.Cycles
	L3D     sim.Cycles // L3 + DVH
}

// DeliveryStorms measures the timer-storm and ipi-flood microworkloads on
// the Table 3 configurations. Each cell builds its own isolated stack and
// fans out across the worker pool; costs are deterministic, so the result is
// identical at any width and across plan-cache modes.
func DeliveryStorms() ([]StormRow, error) {
	storms := workload.Storms()
	costs, err := mapCells(len(stageConfigs)*len(storms), func(i int) (sim.Cycles, error) {
		cfg, s := stageConfigs[i/len(storms)], storms[i%len(storms)]
		st, err := Build(cfg.spec)
		if err != nil {
			return 0, err
		}
		c, err := workload.RunStorm(st.World, st.Target.VCPUs[0], s, stormEvents)
		if err != nil {
			return 0, fmt.Errorf("storm %v on %s: %w", s, cfg.label, err)
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []StormRow
	for si, s := range storms {
		rows = append(rows, StormRow{
			Name:    s.String(),
			VM:      costs[0*len(storms)+si],
			Nested:  costs[1*len(storms)+si],
			NestedD: costs[2*len(storms)+si],
			L3:      costs[3*len(storms)+si],
			L3D:     costs[4*len(storms)+si],
		})
	}
	return rows, nil
}

// FormatStorms renders the storm matrix in Table 3's column layout.
func FormatStorms(rows []StormRow) string {
	var b strings.Builder
	b.WriteString("Delivery storms (cycles per delivered event)\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %14s %12s %12s\n",
		"", "VM", "nested VM", "nested+DVH", "L3 VM", "L3+DVH")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12v %12v %14v %12v %12v\n",
			r.Name, r.VM, r.Nested, r.NestedD, r.L3, r.L3D)
	}
	return b.String()
}
