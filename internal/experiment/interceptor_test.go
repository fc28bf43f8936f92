package experiment

import (
	"testing"

	"repro/internal/apic"
	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/hyperv"
	"repro/internal/trace"
	"repro/internal/xen"
)

// TestUnifiedInterceptorChainHyperV is the integration proof for the unified
// chain: a full evaluation stack registers core.DVH and the Hyper-V
// enlightenment together, the invariant checker brackets every boundary, and
// each interceptor claims its own exit class — the enlightenment executes the
// nested VM's hypercall at L0 (direct virtual flush) while DVH keeps claiming
// doorbells and timer writes. The checker's cycle-conservation frames verify
// every transaction settled exactly what it charged.
func TestUnifiedInterceptorChainHyperV(t *testing.T) {
	st, err := Build(Spec{Depth: 2, IO: IODVH, Guest: GuestHyperV})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.World.RegisterInterceptor(hyperv.Enlightenment{}); err != nil {
		t.Fatal(err)
	}
	chk := st.AttachChecker()

	chain := st.World.Interceptors()
	if len(chain) != 2 {
		t.Fatalf("chain length = %d, want 2 (enlightenment + dvh)", len(chain))
	}
	n0, p0 := chain[0].InterceptorInfo()
	n1, p1 := chain[1].InterceptorInfo()
	if n0 != "hyperv-enlightenment" || n1 != "dvh" || p0 >= p1 {
		t.Fatalf("chain = [%s(%d) %s(%d)], want enlightenment before dvh", n0, p0, n1, p1)
	}

	v := st.Target.VCPUs[0]
	c := &st.World.Costs
	stats := st.Machine.Stats

	// The enlightenment claims the nested hypercall: host-direct envelope,
	// no forwarding into the Hyper-V guest hypervisor.
	cost, err := st.World.Execute(v, hyper.Hypercall())
	if err != nil {
		t.Fatal(err)
	}
	want := c.HwExit + c.HostDispatch + c.EnlightenedHypercallWork + c.HwEntry
	if cost != want {
		t.Errorf("enlightened hypercall = %v cycles, want %v (direct at L0)", cost, want)
	}
	if n := stats.Count(trace.CounterHyperVEnlightenedHypercalls); n != 1 {
		t.Errorf("hyperv.enlightened_hypercalls = %d, want 1", n)
	}
	if n := stats.GuestHypervisorExits(); n != 0 {
		t.Errorf("hypercall forwarded %d exits into the guest hypervisor, want 0", n)
	}

	// DVH still claims its classes through the same chain: a virtual
	// passthrough doorbell never reaches the Hyper-V level either.
	if _, err := st.World.Execute(v, hyper.DevNotify(st.Net.Doorbell)); err != nil {
		t.Fatal(err)
	}
	if n := stats.GuestHypervisorExits(); n != 0 {
		t.Errorf("doorbell forwarded %d exits into the guest hypervisor, want 0", n)
	}

	if err := chk.Finish(); err != nil {
		t.Errorf("invariant checker: %v", err)
	}
	if n := chk.Total(); n != 0 {
		t.Errorf("checker recorded %d violations: %v", n, chk.Violations())
	}
}

// TestUnifiedInterceptorChainXen registers the Xen event-channel offload next
// to DVH on a Xen-guest stack and verifies the IPI class routes through it:
// L0 posts the event directly to the destination vCPU, the Xen guest
// hypervisor never runs, and the conservation frames stay clean — including
// the nested wake boundary when the destination is idle.
func TestUnifiedInterceptorChainXen(t *testing.T) {
	st, err := Build(Spec{Depth: 2, IO: IODVH, Guest: GuestXen})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.World.RegisterInterceptor(xen.Enlightenment{}); err != nil {
		t.Fatal(err)
	}
	chk := st.AttachChecker()

	v := st.Target.VCPUs[0]
	dest := st.Target.VCPUs[1]
	dest.Idle = true
	c := &st.World.Costs
	stats := st.Machine.Stats

	cost, err := st.World.Execute(v, hyper.SendIPI(1, apic.VectorReschedule))
	if err != nil {
		t.Fatal(err)
	}
	// Full DVH includes virtual idle, so the host owns the destination's HLT:
	// the wake is host work only, no guest-level reschedule.
	want := c.HwExit + c.HostDispatch + c.EvtchnNotifyWork + c.HwEntry + c.WakeWork
	if cost != want {
		t.Errorf("evtchn IPI = %v cycles, want %v (direct delivery + wake)", cost, want)
	}
	if n := stats.Count(trace.CounterXenEvtchnIPIs); n != 1 {
		t.Errorf("xen.evtchn_ipis = %d, want 1", n)
	}
	if dest.Idle {
		t.Error("destination vCPU not woken by direct event delivery")
	}
	if !dest.LAPIC.Pending(apic.VectorReschedule) {
		t.Error("event vector not pending on destination LAPIC")
	}

	if err := chk.Finish(); err != nil {
		t.Errorf("invariant checker: %v", err)
	}
}

// TestEnlightenmentRequiresMatchingPersonality pins the opt-in: the
// enlightenments only claim exits from VMs whose immediate hypervisor runs
// the matching personality, so on the default KVM-on-KVM stack both decline
// and the exit takes the ordinary path (here DVH forwards the hypercall —
// the chain charges one check per declining interceptor).
func TestEnlightenmentRequiresMatchingPersonality(t *testing.T) {
	base, err := Build(Spec{Depth: 2, IO: IODVH})
	if err != nil {
		t.Fatal(err)
	}
	baseCost, err := base.World.Execute(base.Target.VCPUs[0], hyper.Hypercall())
	if err != nil {
		t.Fatal(err)
	}

	st, err := Build(Spec{Depth: 2, IO: IODVH})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.World.RegisterInterceptor(hyperv.Enlightenment{}); err != nil {
		t.Fatal(err)
	}
	if err := st.World.RegisterInterceptor(xen.Enlightenment{}); err != nil {
		t.Fatal(err)
	}
	cost, err := st.World.Execute(st.Target.VCPUs[0], hyper.Hypercall())
	if err != nil {
		t.Fatal(err)
	}
	want := baseCost + 2*st.World.Costs.DVHCheckWork
	if cost != want {
		t.Errorf("KVM-guest hypercall with foreign enlightenments = %v, want %v (forwarded + 2 declines)", cost, want)
	}
	if n := st.Machine.Stats.Count(trace.CounterHyperVEnlightenedHypercalls); n != 0 {
		t.Errorf("Hyper-V enlightenment claimed a KVM guest's hypercall (%d)", n)
	}
	if n := core.InterceptPriority; n <= hyperv.InterceptPriority || n <= xen.InterceptPriority {
		t.Errorf("DVH priority %d must sort after the enlightenments (%d, %d)", n, hyperv.InterceptPriority, xen.InterceptPriority)
	}
}

// TestRegisteredChainAllocFree extends the steady-state allocation contract
// to stacks with real interceptors registered — DVH, and the Xen and Hyper-V
// enlightenments — so the chain consultation itself is covered, not only an
// empty chain. Together with the hyper package's alloc tests, this is what
// keeps hyper.Op passed by value: a pointer through Claims or Handle would
// escape on every Execute.
func TestRegisteredChainAllocFree(t *testing.T) {
	specs := []Spec{
		{Depth: 3, IO: IODVH},
		{Depth: 2, Guest: GuestXen, Enlightened: true},
		{Depth: 2, Guest: GuestHyperV, Enlightened: true},
	}
	for _, spec := range specs {
		st, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.World.Interceptors()) == 0 {
			t.Fatalf("%v: no interceptor registered", spec)
		}
		v := st.Target.VCPUs[0]
		dest := uint32((v.ID + 1) % len(v.VM.VCPUs))
		ops := []hyper.Op{
			hyper.Hypercall(),
			hyper.DevNotify(st.Net.Doorbell),
			hyper.SendIPI(dest, apic.VectorReschedule),
			hyper.EOI(),
		}
		for _, op := range ops {
			if _, err := st.World.Execute(v, op); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range ops {
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := st.World.Execute(v, op); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%v: Execute(%v) allocates %.1f times per op with the chain registered, want 0", spec, op.Kind, allocs)
			}
		}
	}
}

// TestClaimsLeaveStateUnchanged holds the interceptor chain's one rule at
// runtime for the registered backends: deciding changes nothing. Claims has
// no *World parameter, but an implementation could still reach engine state
// through a field (core.DVH keeps its World), so for every chain member and
// every op kind the stacks exercise, the test snapshots what an exit may
// touch — the machine stats, the source and destination LAPICs' IRR, ISR and
// TSC deadline, the destination's posted-interrupt descriptor, and the
// number of timers armed on the engine — and requires Claims to leave all of it as found.
// It also requires DVH.Handle to fail an op kind DVH never claims: Handle
// cannot decline, so an unclaimed op is an error, not a silent no-op.
func TestClaimsLeaveStateUnchanged(t *testing.T) {
	specs := []Spec{
		{Depth: 2, IO: IODVH},
		{Depth: 3, IO: IODVH},
		{Depth: 2, Guest: GuestXen, Enlightened: true},
		{Depth: 2, Guest: GuestHyperV, Enlightened: true},
	}
	type snapshot struct {
		stats                    trace.Stats
		srcIRR, srcISR           [4]uint64
		dstIRR, dstISR           [4]uint64
		srcDeadline, dstDeadline uint64
		pid                      apic.PIDescriptor
		armed                    int
	}
	for _, spec := range specs {
		st, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		v := st.Target.VCPUs[0]
		dst := st.Target.VCPUs[(v.ID+1)%len(st.Target.VCPUs)]
		// Arm the source's timer and leave an IPI posted at the destination,
		// so the snapshot holds non-zero state for a stray write to disturb.
		for _, op := range []hyper.Op{
			hyper.ProgramTimer(1 << 30),
			hyper.SendIPI(uint32(dst.ID), apic.VectorReschedule),
		} {
			if _, err := st.World.Execute(v, op); err != nil {
				t.Fatal(err)
			}
		}
		take := func() snapshot {
			return snapshot{
				stats:  *st.World.Host.Machine.Stats,
				srcIRR: v.LAPIC.IRRSnapshot(), srcISR: v.LAPIC.ISRSnapshot(),
				dstIRR: dst.LAPIC.IRRSnapshot(), dstISR: dst.LAPIC.ISRSnapshot(),
				srcDeadline: v.LAPIC.TSCDeadline(), dstDeadline: dst.LAPIC.TSCDeadline(),
				pid:   *dst.PID,
				armed: st.World.Host.Machine.Engine.Armed(),
			}
		}
		ops := []hyper.Op{
			hyper.Hypercall(),
			hyper.DevNotify(st.Net.Doorbell),
			hyper.SendIPI(uint32(dst.ID), apic.VectorReschedule),
			hyper.ProgramTimer(1 << 31),
			hyper.EOI(),
			hyper.Halt(),
		}
		for _, it := range st.World.Interceptors() {
			name, _ := it.InterceptorInfo()
			claimed := 0
			for _, op := range ops {
				before := take()
				if it.Claims(v, op) {
					claimed++
				}
				if after := take(); after != before {
					t.Errorf("%v: %s.Claims(%v) changed engine state", spec, name, op.Kind)
				}
			}
			if claimed == 0 {
				t.Errorf("%v: %s claimed none of the ops; the test exercises no claiming path", spec, name)
			}
		}
		if st.DVH != nil {
			for _, op := range []hyper.Op{hyper.Hypercall(), hyper.EOI(), hyper.Halt()} {
				if _, err := st.DVH.Handle(st.World, v, op); err == nil {
					t.Errorf("%v: DVH.Handle(%v) succeeded on an op kind DVH never claims", spec, op.Kind)
				}
			}
		}
	}
}
