package hyper

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

// This file is the exit-transaction pipeline: every public World entry point
// is one call to transact, which opens an ExitContext, flows it through the
// ordered stages, and settles it. The paper's Figure 1 flow — an exit
// enters at L0 and is either handled directly (1b) or forwarded up the
// hypervisor stack (1a) — is modeled as explicit stages so that boundary
// bookkeeping (invariant-checker bracketing, the final cost returned to the
// caller) happens in exactly one place instead of being replicated per entry
// point, and so that direct-handling backends (DVH, enlightenments) plug into
// one interceptor chain instead of a hard-coded hook. The stage and boundary
// enums are trace.Stage and trace.Boundary, so StageStats sizes its tables
// by them without importing hyper.

// ownerUnresolved is ExitContext.Owner before StageRoute has run.
const ownerUnresolved = -1

// ExitContext is one exit transaction flowing through the pipeline. It lives
// on the entry point's stack frame — the steady-state exit path stays
// allocation-free — and accumulates the transaction's identity (operation,
// exit reason, nesting level), its routing decision, and a per-stage cost
// ledger whose total is the cost returned to the caller.
//
// Nested transactions stack naturally: a forwarded exit whose owner re-enters
// Execute (a guest hypervisor arming its own timer, a cascaded virtio kick)
// opens a fresh ExitContext, and the invariant checker's frames stack with
// them.
type ExitContext struct {
	// V is the vCPU the transaction runs on (the exiting vCPU for Execute,
	// the delivery target for the IRQ boundaries).
	V *VCPU
	// Op is the guest operation; the zero Op for pure delivery boundaries.
	Op Op
	// Boundary names the public entry point that opened the transaction.
	Boundary trace.Boundary
	// Reason is the VM-exit reason for Execute transactions; delivery
	// transactions record their injection reasons per guestPath call.
	Reason vmx.ExitReason
	// Level is V's virtualization level at entry.
	Level int
	// Owner is the hypervisor level routed to handle the exit;
	// ownerUnresolved until StageRoute, 0 when the host claims it.
	Owner int
	// Cost is the accumulated cost ledger total — exactly the cycles the
	// transaction has charged on behalf of its caller so far, and the value
	// transact returns on success.
	Cost sim.Cycles

	// ledger attributes the accumulated cost to the stage that added it.
	ledger [trace.NumStages]sim.Cycles
}

// add charges cycles to the transaction on behalf of a stage. Stages must
// pair every add with the matching stats-sink charges so the settle-point
// invariant — returned cost equals charged cost — holds.
func (tx *ExitContext) add(s trace.Stage, c sim.Cycles) {
	tx.Cost += c
	tx.ledger[s] += c
}

// StageCost returns the cycles the given stage contributed to the
// transaction — the per-stage latency breakdown the pipeline exposes.
func (tx *ExitContext) StageCost(s trace.Stage) sim.Cycles { return tx.ledger[s] }

// transact runs one exit transaction from open to settle, filling tx in
// place: the caller declares a zero ExitContext on its own frame, so the
// context is never built in one frame and copied into another. It is the only
// place a boundary frame is opened with the invariant checker and the single
// point where a boundary's final cost is decided — every public entry point
// is one call to it. Execute transactions flow through dispatch's stages;
// delivery boundaries run their body and charge its cost under StageDeliver.
//
// The checker observes the completed frame exactly once, and the caller
// receives the ledger total, or zero on error: failed operations abandon
// their partial charges, which the checker's cycle-conservation frame
// excuses only on the error path. The world's transaction depth tells an
// outermost transaction (observed by StageStats) from a nested one, whose
// cost the enclosing ledger already holds.
func (w *World) transact(tx *ExitContext, b trace.Boundary, v *VCPU, op Op, dev *AssignedDevice) (sim.Cycles, error) {
	tx.V, tx.Op, tx.Boundary, tx.Owner = v, op, b, ownerUnresolved
	if v != nil {
		tx.Level = v.VM.Level
	}
	w.txDepth++
	check, token := w.Check, 0
	if check != nil {
		token = check.Begin(w, v, b, op)
	}

	var delivered sim.Cycles
	var err error
	switch b {
	case trace.BoundaryExecute:
		tx.Reason = reasonFor(op)
		err = w.dispatch(tx)
	case trace.BoundaryTimerIRQ:
		delivered, err = w.deliverTimerIRQ(v)
	case trace.BoundaryWake:
		delivered, err = w.wakeIfIdle(v)
	case trace.BoundaryDeviceIRQ:
		delivered, err = w.deliverDeviceIRQ(dev, v)
	case trace.BoundaryDeviceRX:
		delivered, err = w.deviceRX(dev, v)
	}
	// Execute's stages charge the ledger themselves; delivered is zero there.
	tx.add(trace.StageDeliver, delivered)

	w.txDepth--
	cost := tx.Cost
	if err != nil {
		cost = 0
	}
	if check != nil {
		check.End(token, w, v, b, op, cost, err)
	}
	if err != nil {
		return 0, err
	}
	if w.txDepth == 0 && w.Stages != nil {
		w.observeStages(tx)
	}
	return cost, nil
}

// observeStages walks a settled outermost transaction's cost ledger into the
// attached StageStats — the pipeline's only observation point for per-stage
// latency attribution. Nested transactions are not observed: their costs are
// already folded into the enclosing ledger at the stage that invoked them
// (an IPI's wake lands in the outer StageForward lump, a cascade kick in the
// outer StageEmulate/StageForward), so every settled cycle is attributed
// exactly once. Only the Execute boundary carries an exit reason; deliveries
// pass reason < 0 and appear in the boundary table alone. Allocation-free:
// fixed loops over the stack-resident ledger into fixed-size tables.
func (w *World) observeStages(tx *ExitContext) {
	reason := -1
	if tx.Boundary == trace.BoundaryExecute {
		reason = tx.Reason.Index()
	}
	w.Stages.ObserveSettled(int(tx.Boundary))
	for s := 0; s < trace.NumStages; s++ {
		if c := tx.ledger[s]; c != 0 {
			w.Stages.ObserveStage(int(tx.Boundary), reason, s, c)
		}
	}
}

// Interceptor is a direct-handling backend registered on a World: at
// StageIntercept the host consults the chain, in deterministic priority
// order, before forwarding a nested VM's exit up the hypervisor stack. DVH
// (package core) is one interceptor; hypervisor-specific enlightenments
// (packages hyperv, xen) are others — a world can stack several without the
// dispatch code knowing any of them.
//
// Deciding and acting are separate methods, so the chain's one rule — an
// interceptor that declines an op has changed nothing — holds by signature:
// Claims has no *World to mutate through, and Handle cannot decline. Handle
// performs the emulation effects, charges its own work to the stats sink,
// and returns that work so the intercept stage can wrap it in the fixed
// exit/dispatch/entry costs. Op is passed by value: neither method mutates
// it, and a pointer would force every Execute call's op to escape to the
// heap through the interface boundary. The steady-state exit path is kept
// allocation-free; the AllocsPerRun tests in this package and in package
// experiment (with DVH and the enlightenments registered) hold that
// contract.
type Interceptor interface {
	// InterceptorInfo returns the interceptor's stable name and its chain
	// priority. Lower priorities are consulted first; ties order by name.
	// Only RegisterInterceptor consults it, to sort the chain and reject
	// duplicate names; the exit path never calls it.
	InterceptorInfo() (name string, priority int)
	// Claims reports whether the interceptor handles this exit from a
	// nested VM (level >= 2) directly. It only decides.
	Claims(v *VCPU, op Op) bool
	// Handle handles a claimed exit and returns the work charged. An error
	// aborts the transaction; there is no declining once claimed.
	Handle(w *World, v *VCPU, op Op) (sim.Cycles, error)
}

// RegisterInterceptor adds a direct-handling backend to the world's chain.
// The chain is kept sorted by (priority, name) — registration order never
// influences dispatch, so runs are reproducible no matter how a stack was
// assembled. Duplicate names are rejected: ties order by name, so two
// interceptors sharing one would make chain order registration-dependent,
// silently breaking the determinism contract. Registration is a setup-time
// operation, not part of the allocation-free exit path.
func (w *World) RegisterInterceptor(i Interceptor) error {
	name, _ := i.InterceptorInfo()
	for _, have := range w.interceptors {
		if hn, _ := have.InterceptorInfo(); hn == name {
			return fmt.Errorf("hyper: interceptor %q already registered: duplicate names would make chain order registration-dependent", name)
		}
	}
	w.interceptors = append(w.interceptors, i)
	sort.SliceStable(w.interceptors, func(a, b int) bool {
		na, pa := w.interceptors[a].InterceptorInfo()
		nb, pb := w.interceptors[b].InterceptorInfo()
		if pa != pb {
			return pa < pb
		}
		return na < nb
	})
	return nil
}

// Interceptors returns the registered chain in consultation order. The
// returned slice is the world's own: callers must not mutate it.
func (w *World) Interceptors() []Interceptor { return w.interceptors }

// stageIntercept consults the interceptor chain for exits from nested VMs.
// The first interceptor to claim the exit concludes the transaction at the
// host (paper Figure 1b); each interceptor whose Claims declines bills its
// check work to the host before the exit moves on — the bookkeeping the
// paper's Table 3 shows as DVH's slightly costlier forwarded hypercall.
func (w *World) stageIntercept(tx *ExitContext) (bool, error) {
	if tx.Level < 2 || len(w.interceptors) == 0 {
		return false, nil
	}
	c := &w.Costs
	stats := w.Host.Machine.Stats
	for _, it := range w.interceptors {
		if !it.Claims(tx.V, tx.Op) {
			tx.add(trace.StageIntercept, c.DVHCheckWork)
			stats.ChargeLevel(0, c.DVHCheckWork)
			continue
		}
		work, err := it.Handle(w, tx.V, tx.Op)
		if err != nil {
			return false, err
		}
		stats.RecordHandledExit(tx.Reason, 0)
		w.Tracer.Record(tx.Reason, tx.Level, 0)
		stats.ChargeLevel(0, c.HostDispatch+c.HwEntry)
		tx.add(trace.StageIntercept, c.HostDispatch+work+c.HwEntry)
		return true, nil
	}
	return false, nil
}
