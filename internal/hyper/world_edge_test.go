package hyper

import (
	"testing"

	"repro/internal/apic"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/vmx"
)

func TestExecuteUnknownDoorbellErrors(t *testing.T) {
	w, vms := testStack(t, 1)
	if _, err := w.Execute(vms[0].VCPUs[0], DevNotify(0xdead0000)); err == nil {
		t.Fatal("kick to unmapped MMIO accepted")
	}
}

func TestExecAsLevelZeroRejected(t *testing.T) {
	w, vms := testStack(t, 2)
	if _, err := w.execAsLevel(vms[1].VCPUs[0], 0, Hypercall()); err == nil {
		t.Fatal("execAsLevel(0) accepted")
	}
	if _, err := w.execAsLevel(vms[1].VCPUs[0], 9, Hypercall()); err == nil {
		t.Fatal("execAsLevel beyond stack accepted")
	}
}

func TestIPIToMissingVCPUErrors(t *testing.T) {
	w, vms := testStack(t, 1)
	if _, err := w.Execute(vms[0].VCPUs[0], SendIPI(99, apic.VectorReschedule)); err == nil {
		t.Fatal("IPI to missing vCPU accepted")
	}
}

func TestStackWithoutGuestHypervisorErrors(t *testing.T) {
	// A VM claims to host a nested VM but no hypervisor was installed: the
	// stack walk must fail loudly rather than forward into nothing.
	m := machine.MustNew(machine.Config{Name: "t", CPUs: 4, MemoryBytes: 8 << 30, Caps: vmx.HardwareCaps})
	host := NewHost(m, KVM{})
	w := NewWorld(host)
	l1, err := host.CreateVM(VMConfig{Name: "L1", VCPUs: 2, MemBytes: 2 << 30})
	if err != nil {
		t.Fatal(err)
	}
	gh := l1.InstallHypervisor(KVM{}, "kvm-L1")
	l2, err := gh.CreateVM(VMConfig{Name: "L2", VCPUs: 2, MemBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	l1.GuestHyp = nil // simulate the misconfiguration
	if _, err := w.Execute(l2.VCPUs[0], Hypercall()); err == nil {
		t.Fatal("forwarding without a guest hypervisor accepted")
	}
}

func TestAsyncErrSurfacesTimerDeliveryFailure(t *testing.T) {
	// A timer fires on an engine callback, where no Execute caller can
	// receive an error. If delivery fails there (here: the nesting stack is
	// corrupted underneath an armed timer), the failure must land in the
	// world's async-error sink instead of being swallowed or panicking.
	w, vms := testStack(t, 2)
	v := vms[1].VCPUs[0]
	eng := w.Host.Machine.Engine
	deadline := uint64(eng.Now()) + 1000
	v.LAPIC.SetTimerVector(apic.VectorTimer)
	v.LAPIC.SetTSCDeadline(deadline)
	w.ArmVirtualTimer(v, deadline)
	vms[0].GuestHyp = nil // corrupt the stack before the timer fires
	eng.RunUntil(sim.Time(deadline) + 1)
	if w.AsyncErr() == nil {
		t.Fatal("timer delivery over a corrupted stack must surface through AsyncErr")
	}
}

func TestAsyncErrNilOnHealthyTimerDelivery(t *testing.T) {
	w, vms := testStack(t, 1)
	v := vms[0].VCPUs[0]
	eng := w.Host.Machine.Engine
	deadline := uint64(eng.Now()) + 1000
	v.LAPIC.SetTimerVector(apic.VectorTimer)
	v.LAPIC.SetTSCDeadline(deadline)
	w.ArmVirtualTimer(v, deadline)
	eng.RunUntil(sim.Time(deadline) + 1)
	if err := w.AsyncErr(); err != nil {
		t.Fatalf("healthy timer delivery raised async error: %v", err)
	}
}

func TestEOIWithoutAPICvTakesExit(t *testing.T) {
	m := machine.MustNew(machine.Config{
		Name: "noapicv", CPUs: 4, MemoryBytes: 8 << 30,
		Caps: vmx.HardwareCaps.Without(vmx.CapAPICv),
	})
	host := NewHost(m, KVM{})
	w := NewWorld(host)
	l1, err := host.CreateVM(VMConfig{Name: "L1", VCPUs: 2, MemBytes: 2 << 30})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Stats.TotalHardwareExits()
	cost, err := w.Execute(l1.VCPUs[0], EOI())
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.TotalHardwareExits() != before+1 {
		t.Fatal("EOI without APICv must exit")
	}
	if cost < 1000 {
		t.Fatalf("EOI exit cost %v; expected full exit magnitude", cost)
	}
}

func TestDeviceRXPassthroughSkipsBackends(t *testing.T) {
	w, vms := testStack(t, 2)
	vms[0].ProvideVIOMMU(true)
	vfs, err := w.Host.Machine.CreateVFs(1)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := AttachPassthroughNIC(vms[1], vfs[0])
	if err != nil {
		t.Fatal(err)
	}
	stats := w.Host.Machine.Stats
	stats.Reset()
	cost, err := w.DeviceRX(dev, vms[1].VCPUs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Posted straight into the VM: no exits, no virtio backend work.
	if stats.TotalHardwareExits() != 0 {
		t.Fatal("passthrough RX caused exits")
	}
	if cost != w.Costs.InjectPostedRunning {
		t.Fatalf("passthrough RX cost %v", cost)
	}
	if w.Host.Machine.NIC.RxFrames != 1 {
		t.Fatal("frame not counted at the NIC")
	}
}

func TestDeviceRXCascadeCostGrowsWithProviderLevel(t *testing.T) {
	w2, vms2 := testStack(t, 2)
	if _, err := AttachParavirt(vms2[0], DevNet, "n0"); err != nil {
		t.Fatal(err)
	}
	dev2, err := AttachParavirt(vms2[1], DevNet, "n1")
	if err != nil {
		t.Fatal(err)
	}
	rx2, err := w2.DeviceRX(dev2, vms2[1].VCPUs[0])
	if err != nil {
		t.Fatal(err)
	}

	w1, vms1 := testStack(t, 1)
	dev1, err := AttachParavirt(vms1[0], DevNet, "n0")
	if err != nil {
		t.Fatal(err)
	}
	rx1, err := w1.DeviceRX(dev1, vms1[0].VCPUs[0])
	if err != nil {
		t.Fatal(err)
	}
	if rx2 < 5*rx1 {
		t.Fatalf("nested RX (%v) should dwarf single-level RX (%v): the L1 backend interposes", rx2, rx1)
	}
}

func TestCostModelHostExitCost(t *testing.T) {
	c := DefaultCosts()
	if c.HostExitCost(0) != 1575 {
		t.Fatalf("null host exit = %v", c.HostExitCost(0))
	}
	if c.HostExitCost(c.VirtioBackendWork) != 4984 {
		t.Fatalf("DevNotify host exit = %v", c.HostExitCost(c.VirtioBackendWork))
	}
}

func TestOpKindStrings(t *testing.T) {
	want := map[OpKind]string{
		OpHypercall: "Hypercall", OpDevNotify: "DevNotify", OpTimerProgram: "ProgramTimer",
		OpSendIPI: "SendIPI", OpHLT: "HLT", OpEOI: "EOI", OpMemTouch: "MemTouch",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k, s)
		}
	}
	if OpKind(99).String() != "Op(99)" {
		t.Errorf("unknown op rendering: %q", OpKind(99))
	}
}

func TestDepthCostMonotonicityProperty(t *testing.T) {
	// The core invariant behind every figure: forwarded cost strictly grows
	// with depth for every operation kind that forwards.
	for _, mk := range []struct {
		name string
		op   func(*VM) Op
	}{
		{"hypercall", func(*VM) Op { return Hypercall() }},
		{"timer", func(*VM) Op { return ProgramTimer(10_000) }},
		{"ipi", func(*VM) Op { return SendIPI(1, apic.VectorReschedule) }},
		{"hlt", func(*VM) Op { return Halt() }},
	} {
		var prev sim.Cycles
		for depth := 1; depth <= 3; depth++ {
			w, vms := testStack(t, depth)
			v := vms[depth-1].VCPUs[0]
			c := exec(t, w, v, mk.op(vms[depth-1]))
			if depth > 1 && float64(c) < 5*float64(prev) {
				t.Errorf("%s: depth %d cost %v not well above depth %d cost %v", mk.name, depth, c, depth-1, prev)
			}
			prev = c
		}
	}
}
