package hyper

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// stubInterceptor is a minimal chain member recording when it fires.
type stubInterceptor struct {
	name     string
	priority int
	handle   bool
	work     sim.Cycles
	// err, when set, makes the stub claim every exit it is consulted on
	// and then fail it in Handle, aborting the transaction.
	err error
	log *[]string
}

func (s *stubInterceptor) InterceptorInfo() (string, int) { return s.name, s.priority }

func (s *stubInterceptor) Claims(v *VCPU, op Op) bool {
	*s.log = append(*s.log, s.name)
	return s.handle || s.err != nil
}

func (s *stubInterceptor) Handle(w *World, v *VCPU, op Op) (sim.Cycles, error) {
	if s.err != nil {
		return 0, s.err
	}
	w.Host.Machine.Stats.ChargeLevel(0, s.work)
	return s.work, nil
}

// mustRegister registers an interceptor, failing the test on rejection.
func mustRegister(t testing.TB, w *World, i Interceptor) {
	t.Helper()
	if err := w.RegisterInterceptor(i); err != nil {
		t.Fatal(err)
	}
}

func chainNames(w *World) []string {
	var names []string
	for _, it := range w.Interceptors() {
		n, _ := it.InterceptorInfo()
		names = append(names, n)
	}
	return names
}

// TestInterceptorChainOrderDeterministic registers two interceptors in both
// possible orders and requires the consulted chain — and the actual firing
// order on a nested exit — to come out identically: (priority, name) decides,
// registration order never does. This is the determinism contract that lets
// stacks assemble their backends in any order and still produce byte-identical
// runs.
func TestInterceptorChainOrderDeterministic(t *testing.T) {
	build := func(reversed bool) (*World, *VCPU, *[]string) {
		w, vms := testStack(t, 2)
		log := &[]string{}
		early := &stubInterceptor{name: "early", priority: 10, log: log}
		late := &stubInterceptor{name: "late", priority: 90, log: log}
		if reversed {
			mustRegister(t, w, late)
			mustRegister(t, w, early)
		} else {
			mustRegister(t, w, early)
			mustRegister(t, w, late)
		}
		return w, vms[1].VCPUs[0], log
	}

	for _, reversed := range []bool{false, true} {
		w, v, log := build(reversed)
		got := chainNames(w)
		if len(got) != 2 || got[0] != "early" || got[1] != "late" {
			t.Fatalf("reversed=%v: chain order = %v, want [early late]", reversed, got)
		}
		exec(t, w, v, Hypercall())
		if len(*log) != 2 || (*log)[0] != "early" || (*log)[1] != "late" {
			t.Fatalf("reversed=%v: firing order = %v, want [early late]", reversed, *log)
		}
	}
}

// TestInterceptorTieBreakByName checks the documented tie rule: equal
// priorities order by name.
func TestInterceptorTieBreakByName(t *testing.T) {
	w, _ := testStack(t, 2)
	log := &[]string{}
	mustRegister(t, w, &stubInterceptor{name: "zeta", priority: 50, log: log})
	mustRegister(t, w, &stubInterceptor{name: "alpha", priority: 50, log: log})
	got := chainNames(w)
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("chain order = %v, want [alpha zeta]", got)
	}
}

// TestInterceptorHandledStopsChain verifies claim semantics and accounting:
// the first interceptor to handle the exit ends the transaction at the host —
// later chain members are never consulted — and the caller's cost is the
// full direct-handling envelope: hardware exit, the declining predecessor's
// check work, dispatch, the handler's work, hardware entry.
func TestInterceptorHandledStopsChain(t *testing.T) {
	w, vms := testStack(t, 2)
	log := &[]string{}
	mustRegister(t, w, &stubInterceptor{name: "decliner", priority: 1, log: log})
	mustRegister(t, w, &stubInterceptor{name: "handler", priority: 2, handle: true, work: 333, log: log})
	mustRegister(t, w, &stubInterceptor{name: "shadowed", priority: 3, log: log})

	v := vms[1].VCPUs[0]
	c := &w.Costs
	got := exec(t, w, v, Hypercall())
	want := c.HwExit + c.DVHCheckWork + c.HostDispatch + 333 + c.HwEntry
	if got != want {
		t.Errorf("handled-exit cost = %v, want %v", got, want)
	}
	if len(*log) != 2 || (*log)[1] != "handler" {
		t.Errorf("firing log = %v, want [decliner handler] (shadowed never consulted)", *log)
	}
	if n := w.Host.Machine.Stats.TotalHandledAt(0); n != 1 {
		t.Errorf("host handled-exit count = %d, want 1", n)
	}
}

// TestInterceptorSkippedAtLevel1 confirms the chain is a nested-VM mechanism:
// a level-1 exit never consults it (DVH provides virtual hardware to nested
// VMs; a level-1 VM already has the host's).
func TestInterceptorSkippedAtLevel1(t *testing.T) {
	w, vms := testStack(t, 1)
	log := &[]string{}
	mustRegister(t, w, &stubInterceptor{name: "stub", priority: 1, handle: true, log: log})
	exec(t, w, vms[0].VCPUs[0], Hypercall())
	if len(*log) != 0 {
		t.Errorf("interceptor consulted for a level-1 exit: %v", *log)
	}
}

// spyChecker counts boundary frames to prove the pipeline's single settle
// point: one Begin and one End per public entry, with End receiving exactly
// the cost the caller got.
type spyChecker struct {
	begins, ends int
	lastCost     sim.Cycles
	lastErr      error
	open         int
	maxDepth     int
}

func (s *spyChecker) Begin(w *World, v *VCPU, b trace.Boundary, op Op) int {
	s.begins++
	s.open++
	if s.open > s.maxDepth {
		s.maxDepth = s.open
	}
	return s.begins
}

func (s *spyChecker) End(token int, w *World, v *VCPU, b trace.Boundary, op Op, cost sim.Cycles, err error) {
	s.ends++
	s.open--
	s.lastCost, s.lastErr = cost, err
}

func (s *spyChecker) TimerArmed(w *World, v *VCPU, hostDeadline uint64) {}

// TestSingleSettlePoint drives representative paths through each pipeline
// outcome — fast path, host emulation, interceptor claim, full forwarding —
// and checks every Execute produced exactly one balanced checker frame whose
// settled cost equals the caller's return value.
func TestSingleSettlePoint(t *testing.T) {
	w, vms := testStack(t, 2)
	spy := &spyChecker{}
	w.Check = spy
	v := vms[1].VCPUs[0]

	ops := []Op{EOI(), Hypercall()}
	for _, op := range ops {
		before := spy.begins
		cost := exec(t, w, v, op)
		if spy.begins != before+1 {
			t.Fatalf("%v: %d Begin frames for one Execute, want 1", op.Kind, spy.begins-before)
		}
		if spy.ends != spy.begins {
			t.Fatalf("%v: unbalanced frames: %d begins, %d ends", op.Kind, spy.begins, spy.ends)
		}
		if spy.lastCost != cost {
			t.Errorf("%v: settle reported %v to checker, caller got %v", op.Kind, spy.lastCost, cost)
		}
	}

	// An interceptor claim settles through the same single point.
	log := &[]string{}
	mustRegister(t, w, &stubInterceptor{name: "claimer", priority: 1, handle: true, work: 100, log: log})
	before := spy.begins
	cost := exec(t, w, v, Hypercall())
	if spy.begins != before+1 || spy.ends != spy.begins {
		t.Fatalf("intercepted exit: frames begin=%d end=%d (before=%d), want one balanced frame", spy.begins, spy.ends, before)
	}
	if spy.lastCost != cost {
		t.Errorf("intercepted exit: settle reported %v, caller got %v", spy.lastCost, cost)
	}
}

// TestNestedBoundariesStack verifies that a delivery boundary opened inside a
// transaction (the wake inside an IPI) stacks checker frames rather than
// merging them — the pipeline opens one transaction per public entry, nested
// entries included.
func TestNestedBoundariesStack(t *testing.T) {
	w, vms := testStack(t, 1)
	spy := &spyChecker{}
	w.Check = spy
	dest := vms[0].VCPUs[1]
	dest.Idle = true
	exec(t, w, vms[0].VCPUs[0], SendIPI(1, 0x42))
	if spy.maxDepth < 2 {
		t.Errorf("IPI-with-wake frame depth = %d, want >= 2 (Execute + WakeIfIdle)", spy.maxDepth)
	}
	if spy.begins != spy.ends {
		t.Errorf("unbalanced frames: %d begins, %d ends", spy.begins, spy.ends)
	}
}

// boundaryCase is one exit transaction driven through transact on a fresh
// depth-2 stack with paravirtual net at each level.
type boundaryCase struct {
	name string
	b    trace.Boundary
	op   Op
	// setup prepares the stack before the transaction on its L2 vCPU v.
	setup func(t *testing.T, w *World, v *VCPU)
	// wantErr is the failure case; errAfterExit marks one that aborts after
	// dispatch recorded its hardware exit.
	wantErr, errAfterExit bool
}

var errStubAbort = errors.New("stub abort")

// runBoundaryCase drives tc through transact with a caller-owned ExitContext
// so the settled ledger stays inspectable. Every checker frame opened (the
// boundary's own and any nested delivery) must be closed and the world's
// transaction depth must return to zero, on success and on error alike.
func runBoundaryCase(t *testing.T, tc boundaryCase) {
	t.Helper()
	w, v, net := nestedOpStack(t, 2)
	if tc.setup != nil {
		tc.setup(t, w, v)
	}
	spy := &spyChecker{}
	w.Check = spy
	stats := w.Host.Machine.Stats
	hw := stats.TotalHardwareExits()

	var tx ExitContext
	cost, err := w.transact(&tx, tc.b, v, tc.op, net)

	if spy.begins == 0 || spy.begins != spy.ends {
		t.Errorf("checker frames: %d begins, %d ends, want balanced and at least one", spy.begins, spy.ends)
	}
	if w.txDepth != 0 {
		t.Errorf("txDepth = %d after the boundary returned, want 0", w.txDepth)
	}
	if tc.wantErr {
		if err == nil || cost != 0 {
			t.Fatalf("transact = (%v, %v), want (0, error)", cost, err)
		}
		if spy.lastCost != 0 || spy.lastErr != err {
			t.Errorf("checker observed (%v, %v), want (0, %v)", spy.lastCost, spy.lastErr, err)
		}
		if tc.errAfterExit {
			if !errors.Is(err, errStubAbort) {
				t.Errorf("error = %v, want the interceptor's abort", err)
			}
			if got := stats.TotalHardwareExits() - hw; got != 1 {
				t.Errorf("aborted exit recorded %d hardware exits, want 1", got)
			}
			if tx.Cost == 0 {
				t.Error("aborted transaction held no partial charge; the zero-cost settle is untested")
			}
		} else if tc.b == trace.BoundaryExecute && stats.TotalHardwareExits() != hw {
			t.Errorf("a transaction failing before the exit recorded %d hardware exits", stats.TotalHardwareExits()-hw)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if cost == 0 || cost != tx.Cost {
		t.Errorf("returned cost %v, ledger total %v: want equal and nonzero", cost, tx.Cost)
	}
	if spy.lastCost != cost || spy.lastErr != nil {
		t.Errorf("checker observed (%v, %v), caller got (%v, nil)", spy.lastCost, spy.lastErr, cost)
	}
	var sum sim.Cycles
	for s := trace.Stage(0); int(s) < trace.NumStages; s++ {
		sum += tx.StageCost(s)
	}
	if sum != cost {
		t.Errorf("stage costs sum to %v, boundary returned %v", sum, cost)
	}
	if tc.b == trace.BoundaryExecute {
		if tx.Owner != 1 {
			t.Errorf("forwarded hypercall owner = %d, want 1", tx.Owner)
		}
	} else if tx.StageCost(trace.StageDeliver) != cost || tx.Owner != ownerUnresolved {
		t.Errorf("delivery charged %v of %v under StageDeliver with owner %d; want all of it, unrouted",
			tx.StageCost(trace.StageDeliver), cost, tx.Owner)
	}
}

// TestExitContextLedger is the per-stage cost ledger: add accumulates per
// stage and in the total, and at every public boundary the settled
// transaction returns exactly its ledger total, the per-stage costs sum to
// it, and delivery boundaries charge it all under StageDeliver and never
// route.
func TestExitContextLedger(t *testing.T) {
	var tx ExitContext
	tx.add(trace.StageRoute, 10)
	tx.add(trace.StageForward, 700)
	tx.add(trace.StageForward, 300)
	if tx.StageCost(trace.StageForward) != 1000 {
		t.Errorf("StageCost(forward) = %v, want 1000", tx.StageCost(trace.StageForward))
	}
	if tx.Cost != 1010 {
		t.Errorf("ledger total = %v, want 1010", tx.Cost)
	}
	idle := func(t *testing.T, w *World, v *VCPU) { v.Idle = true }
	for _, tc := range []boundaryCase{
		{name: "execute", b: trace.BoundaryExecute, op: Hypercall()},
		{name: "timer-irq", b: trace.BoundaryTimerIRQ, setup: idle},
		{name: "wake", b: trace.BoundaryWake, setup: idle},
		{name: "device-irq", b: trace.BoundaryDeviceIRQ},
		{name: "device-rx", b: trace.BoundaryDeviceRX},
	} {
		t.Run(tc.name, func(t *testing.T) { runBoundaryCase(t, tc) })
	}
}

// TestSettleZeroesCostOnError pins the error contract at the transaction
// boundary: before the hardware exit, after it, and in a delivery body, the
// caller and the checker both see (0, err), whatever partial charges the
// ledger held.
func TestSettleZeroesCostOnError(t *testing.T) {
	for _, tc := range []boundaryCase{
		{name: "execute-unmapped-doorbell", b: trace.BoundaryExecute, op: DevNotify(0xdead0000), wantErr: true},
		{name: "execute-interceptor-abort", b: trace.BoundaryExecute, op: Hypercall(), wantErr: true, errAfterExit: true,
			setup: func(t *testing.T, w *World, v *VCPU) {
				mustRegister(t, w, &stubInterceptor{name: "abort", priority: 10, err: errStubAbort, log: &[]string{}})
			}},
		{name: "timer-irq-no-guest-hypervisor", b: trace.BoundaryTimerIRQ, wantErr: true,
			setup: func(t *testing.T, w *World, v *VCPU) { v.Parent.VM.GuestHyp = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) { runBoundaryCase(t, tc) })
	}
}

// TestStageStringTotal pins the rendered names of the pipeline's stages, in
// ledger order (the name array is sized by the enum, so its length cannot
// drift; this covers the order and spelling).
func TestStageStringTotal(t *testing.T) {
	want := []string{"fast-path", "intercept", "route", "emulate", "forward", "deliver", "settle"}
	for i, name := range want {
		if got := trace.Stage(i).String(); got != name {
			t.Errorf("Stage(%d).String() = %q, want %q", i, got, name)
		}
	}
	if trace.NumStages != len(want) {
		t.Errorf("NumStages = %d, want %d", trace.NumStages, len(want))
	}
}

// TestAPICvEOICostModeled is the regression test for promoting the APICv EOI
// fast path's magic constant into the cost model: the default reproduces the
// calibrated 50-cycle absorbed write, and the cost is genuinely consulted —
// recalibrating the field changes what an EOI costs.
func TestAPICvEOICostModeled(t *testing.T) {
	w, vms := testStack(t, 1)
	v := vms[0].VCPUs[0]
	if w.Costs.APICvEOICost != 50 {
		t.Fatalf("default APICvEOICost = %v, want calibrated 50", w.Costs.APICvEOICost)
	}
	if got := exec(t, w, v, EOI()); got != 50 {
		t.Fatalf("EOI cost = %v, want 50", got)
	}
	guestBefore := w.Host.Machine.Stats.GuestCycles
	w.Costs.APICvEOICost = 75
	if got := exec(t, w, v, EOI()); got != 75 {
		t.Fatalf("EOI cost after recalibration = %v, want 75", got)
	}
	if delta := w.Host.Machine.Stats.GuestCycles - guestBefore; delta != 75 {
		t.Errorf("EOI charged %v guest cycles, want 75 (APICv absorbs the write; no exit)", delta)
	}
	if n := w.Host.Machine.Stats.TotalHardwareExits(); n != 0 {
		t.Errorf("EOI caused %d hardware exits, want 0", n)
	}
}

// TestAbortAfterHardwareExitConservesExits aborts a nested exit in the
// intercept stage, after dispatch has already recorded its hardware exit.
// The host is the level that dropped it, so the aborted transaction must
// still leave every hardware exit matched by one handled exit.
func TestAbortAfterHardwareExitConservesExits(t *testing.T) {
	w, vms := testStack(t, 2)
	abort := errors.New("stub abort")
	mustRegister(t, w, &stubInterceptor{name: "abort", priority: 10, err: abort, log: &[]string{}})
	stats := w.Host.Machine.Stats
	hw := stats.TotalHardwareExits()
	if _, err := w.Execute(vms[1].VCPUs[0], Hypercall()); !errors.Is(err, abort) {
		t.Fatalf("Execute error = %v, want the interceptor's abort", err)
	}
	if got := stats.TotalHardwareExits(); got != hw+1 {
		t.Fatalf("aborted exit recorded %d hardware exits, want 1", got-hw)
	}
	if hw, handled := stats.TotalHardwareExits(), stats.TotalHandledExits(); hw != handled {
		t.Errorf("after the abort: %d hardware exits but %d handled", hw, handled)
	}
}
