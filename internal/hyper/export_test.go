package hyper

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExecuteLedger is Execute with the settled transaction's per-stage cost
// ledger exposed — test-only access to the otherwise stack-local ExitContext,
// so the metamorphic settle-ledger tests (here and in the external
// hyper_test package, which can import experiment without a cycle) can assert
// sum(StageCost(s)) == Cost for every transaction the matrix runs.
func (w *World) ExecuteLedger(v *VCPU, op Op) ([]sim.Cycles, sim.Cycles, error) {
	var tx ExitContext
	cost, err := w.transact(&tx, trace.BoundaryExecute, v, op, nil)
	ledger := make([]sim.Cycles, trace.NumStages)
	copy(ledger, tx.ledger[:])
	return ledger, cost, err
}
