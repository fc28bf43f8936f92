package hyper

import (
	"testing"

	"repro/internal/apic"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestStageStatsMatchesReturnedCost is the settle-ledger contract surfaced
// through the observability layer: for any single outermost Execute, the
// cycles StageStats observes are exactly the cost the boundary returned.
func TestStageStatsMatchesReturnedCost(t *testing.T) {
	for _, depth := range []int{1, 2, 3} {
		w, v, net := nestedOpStack(t, depth)
		for _, op := range steadyOps(w, v, net) {
			ss := &trace.StageStats{}
			w.AttachStageStats(ss)
			cost := exec(t, w, v, op)
			w.AttachStageStats(nil)
			if got := ss.TotalCycles(); got != cost {
				t.Errorf("depth %d %v: observed %v cycles, boundary returned %v", depth, op.Kind, got, cost)
			}
			if ss.TotalSettled() != 1 {
				t.Errorf("depth %d %v: %d outermost transactions observed, want 1", depth, op.Kind, ss.TotalSettled())
			}
			if ss.Settled[int(trace.BoundaryExecute)] != 1 {
				t.Errorf("depth %d %v: settle not attributed to the Execute boundary", depth, op.Kind)
			}
		}
	}
}

// TestStageStatsOutermostOnly drives the nesting cases — an IPI whose
// delivery wakes a halted destination (a Wake boundary inside Execute), and
// the paravirtual kick cascade (nested Execute re-entries) — and asserts the
// nested boundaries are folded into the outer transaction instead of being
// observed twice.
func TestStageStatsOutermostOnly(t *testing.T) {
	w, v, net := nestedOpStack(t, 2)
	dest := v.VM.VCPUs[(v.ID+1)%len(v.VM.VCPUs)]
	exec(t, w, dest, Halt())

	ss := &trace.StageStats{}
	w.AttachStageStats(ss)
	ipiCost := exec(t, w, v, SendIPI(uint32(dest.ID), apic.VectorReschedule))
	kickCost := exec(t, w, v, DevNotify(net.Doorbell))
	w.AttachStageStats(nil)

	if dest.Idle {
		t.Fatal("IPI did not wake the destination")
	}
	if got := ss.TotalSettled(); got != 2 {
		t.Fatalf("observed %d outermost transactions, want exactly the 2 Executes", got)
	}
	if got := ss.Settled[int(trace.BoundaryWake)]; got != 0 {
		t.Errorf("nested wake observed as its own transaction %d times", got)
	}
	if got := ss.TotalCycles(); got != ipiCost+kickCost {
		t.Errorf("observed %v cycles, boundaries returned %v", got, ipiCost+kickCost)
	}
}

// TestStageStatsReconcilesWithStats is the aggregate reconciliation: over a
// run driven purely through World boundaries, the per-stage grand total
// equals the Stats grand total (LevelCycles sum plus guest-charged fast-path
// cycles) — every charged cycle is attributed to a stage exactly once.
func TestStageStatsReconcilesWithStats(t *testing.T) {
	for _, depth := range []int{2, 3} {
		w, v, net := nestedOpStack(t, depth)
		stats := w.Host.Machine.Stats
		stats.Reset()
		ss := &trace.StageStats{}
		w.AttachStageStats(ss)
		var returned sim.Cycles
		for i := 0; i < 5; i++ {
			for _, op := range steadyOps(w, v, net) {
				returned += exec(t, w, v, op)
			}
			rx, err := w.DeviceRX(net, v)
			if err != nil {
				t.Fatal(err)
			}
			returned += rx
		}
		w.AttachStageStats(nil)
		if got := ss.TotalCycles(); got != returned {
			t.Errorf("depth %d: stage total %v, boundaries returned %v", depth, got, returned)
		}
		if got, want := ss.TotalCycles(), stats.TotalCycles(); got != want {
			t.Errorf("depth %d: stage total %v does not reconcile with Stats grand total %v", depth, got, want)
		}
	}
}

// TestExecuteLedgerSumsToCost asserts the per-transaction form of the settle
// invariant directly on the ledger, per stage index.
func TestExecuteLedgerSumsToCost(t *testing.T) {
	for _, depth := range []int{1, 2, 3} {
		w, v, net := nestedOpStack(t, depth)
		for _, op := range steadyOps(w, v, net) {
			ledger, cost, err := w.ExecuteLedger(v, op)
			if err != nil {
				t.Fatal(err)
			}
			var sum sim.Cycles
			for _, c := range ledger {
				sum += c
			}
			if sum != cost {
				t.Errorf("depth %d %v: ledger sums to %v, cost is %v (%v)", depth, op.Kind, sum, cost, ledger)
			}
		}
	}
}

// TestExecuteAllocFreeWithStageStats extends the steady-state allocation
// contract to the observe path: attaching StageStats must keep Execute at
// zero allocations per operation.
func TestExecuteAllocFreeWithStageStats(t *testing.T) {
	for _, depth := range []int{2, 3} {
		w, v, net := nestedOpStack(t, depth)
		w.AttachStageStats(&trace.StageStats{})
		ops := steadyOps(w, v, net)
		for _, op := range ops {
			if _, err := w.Execute(v, op); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range ops {
			op := op
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := w.Execute(v, op); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("depth %d: Execute(%v) with StageStats attached allocates %.1f times per op, want 0",
					depth, op.Kind, allocs)
			}
		}
	}
}
