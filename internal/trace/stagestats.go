package trace

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/vmx"
)

// StageStats is the per-stage latency observability layer over the exit
// pipeline: it answers where a transaction's cycles accrue — route vs forward
// vs deliver — which the aggregate Stats tables cannot (they attribute cycles
// to hypervisor *levels*, not pipeline *stages*). It is observed at the
// pipeline's single settle point by walking the transaction's per-stage cost
// ledger, so exactly the cycles a boundary returned to its caller are
// attributed, once each.
//
// Like Recorder and Stats, a nil *StageStats is a valid no-op sink, all
// tables are fixed-size arrays (no allocation on the observe path), and
// Merge is deterministic — merging per-cell stats in cell order produces
// byte-identical output at any worker-pool width.
//
// The simulator observes only *outermost* transactions: a nested boundary
// (a wake inside an IPI, a cascade kick inside a forwarded doorbell) already
// folds its cost into the enclosing transaction's ledger at the stage that
// invoked it, so observing it again would double-count. Each settled cycle
// therefore appears in exactly one (boundary, stage) cell.
//
// The zero value is ready to use; it is not safe for concurrent use (one per
// World, like Stats).
type StageStats struct {
	// BoundaryCycles attributes cycles by (boundary, stage): which entry
	// point's transactions spent them and in which pipeline phase.
	BoundaryCycles [NumBoundaries][NumStages]sim.Cycles
	// ReasonCycles attributes Execute-boundary cycles by (exit reason,
	// stage) — the table that splits a Table 3 row into route/forward/...
	// Delivery boundaries carry no exit reason and are not recorded here.
	ReasonCycles [vmx.NumReasonIndexes][NumStages]sim.Cycles
	// Hist holds the per-stage cost distribution: one sample per settled
	// outermost transaction in which the stage contributed cycles.
	Hist [NumStages]Histogram
	// Settled counts settled outermost transactions per boundary, including
	// zero-cost ones (a wake of a running vCPU settles without charging).
	Settled [NumBoundaries]uint64
}

// clampStage and clampBoundary mirror Stats.RecordHandledExit's clamping so a
// hostile index lands on an edge row instead of out of bounds.
func clampStage(s int) int {
	if s < 0 {
		return 0
	}
	if s >= NumStages {
		return NumStages - 1
	}
	return s
}

func clampBoundary(b int) int {
	if b < 0 {
		return 0
	}
	if b >= NumBoundaries {
		return NumBoundaries - 1
	}
	return b
}

// ObserveSettled notes one settled outermost transaction on the boundary; on
// a nil receiver it is a no-op, so the settle path can call unconditionally.
func (ss *StageStats) ObserveSettled(boundary int) {
	if ss == nil {
		return
	}
	ss.Settled[clampBoundary(boundary)]++
}

// ObserveStage records one stage's contribution to a settled outermost
// transaction: c cycles accrued at the stage, on the boundary, for the exit
// reason index (pass reason < 0 for boundaries that carry none). Nil-receiver
// no-op, allocation-free — this is on the hot exit path.
func (ss *StageStats) ObserveStage(boundary, reason, stage int, c sim.Cycles) {
	if ss == nil {
		return
	}
	b, s := clampBoundary(boundary), clampStage(stage)
	ss.BoundaryCycles[b][s] += c
	if reason >= 0 {
		if reason >= vmx.NumReasonIndexes {
			reason = vmx.NumReasonIndexes - 1
		}
		ss.ReasonCycles[reason][s] += c
	}
	ss.Hist[s].Observe(c)
}

// StageTotal sums the cycles attributed to one stage across all boundaries.
func (ss *StageStats) StageTotal(stage int) sim.Cycles {
	if ss == nil {
		return 0
	}
	var t sim.Cycles
	s := clampStage(stage)
	for b := 0; b < NumBoundaries; b++ {
		t += ss.BoundaryCycles[b][s]
	}
	return t
}

// BoundaryTotal sums the cycles attributed to one boundary across all stages.
func (ss *StageStats) BoundaryTotal(boundary int) sim.Cycles {
	if ss == nil {
		return 0
	}
	var t sim.Cycles
	b := clampBoundary(boundary)
	for s := 0; s < NumStages; s++ {
		t += ss.BoundaryCycles[b][s]
	}
	return t
}

// TotalCycles sums every attributed cycle. On a consistent run driven only
// through World boundaries this equals the Stats grand total (LevelCycles sum
// plus the guest cycles charged on fast paths) — the reconciliation the
// settle-ledger metamorphic tests assert.
func (ss *StageStats) TotalCycles() sim.Cycles {
	var t sim.Cycles
	for b := 0; b < NumBoundaries; b++ {
		t += ss.BoundaryTotal(b)
	}
	return t
}

// TotalSettled sums settled transactions over every boundary.
func (ss *StageStats) TotalSettled() uint64 {
	if ss == nil {
		return 0
	}
	var t uint64
	for _, n := range ss.Settled {
		t += n
	}
	return t
}

// Reset zeroes all attribution.
func (ss *StageStats) Reset() { *ss = StageStats{} }

// Merge adds other's attribution into ss. Array adds commute and Histogram
// merges are order-insensitive for every printed statistic, but the harness
// always merges in cell order anyway, so merged output is byte-identical at
// any pool width.
func (ss *StageStats) Merge(other *StageStats) {
	if other == nil {
		return
	}
	for b := 0; b < NumBoundaries; b++ {
		for s := 0; s < NumStages; s++ {
			ss.BoundaryCycles[b][s] += other.BoundaryCycles[b][s]
		}
		ss.Settled[b] += other.Settled[b]
	}
	for r := 0; r < vmx.NumReasonIndexes; r++ {
		for s := 0; s < NumStages; s++ {
			ss.ReasonCycles[r][s] += other.ReasonCycles[r][s]
		}
	}
	for s := 0; s < NumStages; s++ {
		ss.Hist[s].Merge(&other.Hist[s])
	}
}

// String renders the attribution: the (boundary, stage) table, the
// (exit reason, stage) table for Execute transactions, then the per-stage
// cost histograms. All iteration is over fixed arrays in index order, so the
// output is deterministic.
func (ss *StageStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stage cycles by boundary (%d outermost transactions)\n", ss.TotalSettled())
	fmt.Fprintf(&b, "  %-18s %8s", "boundary", "txns")
	for s := 0; s < NumStages; s++ {
		fmt.Fprintf(&b, " %10s", stageNames[s])
	}
	b.WriteByte('\n')
	for bd := 0; bd < NumBoundaries; bd++ {
		if ss.Settled[bd] == 0 && ss.BoundaryTotal(bd) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-18s %8d", boundaryNames[bd], ss.Settled[bd])
		for s := 0; s < NumStages; s++ {
			writeCell(&b, ss.BoundaryCycles[bd][s])
		}
		b.WriteByte('\n')
	}
	b.WriteString("stage cycles by exit reason (Execute)\n")
	for r := 0; r < vmx.NumReasonIndexes; r++ {
		var any bool
		for s := 0; s < NumStages; s++ {
			any = any || ss.ReasonCycles[r][s] != 0
		}
		if !any {
			continue
		}
		fmt.Fprintf(&b, "  %-27s", vmx.ExitReason(r).String())
		for s := 0; s < NumStages; s++ {
			writeCell(&b, ss.ReasonCycles[r][s])
		}
		b.WriteByte('\n')
	}
	b.WriteString("per-stage cost histograms\n")
	for s := 0; s < NumStages; s++ {
		if ss.Hist[s].Count() == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %s: %s", stageNames[s], ss.Hist[s].String())
	}
	return b.String()
}

// writeCell prints one cycles cell, folding zero to "-" so the stacked
// tables read like the paper's.
func writeCell(b *strings.Builder, c sim.Cycles) {
	if c == 0 {
		fmt.Fprintf(b, " %10s", "-")
		return
	}
	fmt.Fprintf(b, " %10d", uint64(c))
}
