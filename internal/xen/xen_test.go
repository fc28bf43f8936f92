package xen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/machine"
	"repro/internal/vmx"
)

// buildXenOnKVM mirrors the paper's Figure 10 setup: a KVM host with a Xen
// guest hypervisor running a nested VM.
func buildXenOnKVM(t *testing.T, features core.Features) (*core.DVH, *hyper.World, *hyper.VM, *hyper.VM) {
	t.Helper()
	m := machine.MustNew(machine.Config{
		Name: "xen-test", CPUs: 10, MemoryBytes: 64 << 30, Caps: vmx.HardwareCaps,
	})
	host := hyper.NewHost(m, hyper.KVM{})
	w := hyper.NewWorld(host)
	var d *core.DVH
	if features != 0 {
		var err error
		if d, err = core.Enable(w, features); err != nil {
			t.Fatal(err)
		}
	}
	l1, err := host.CreateVM(hyper.VMConfig{Name: "L1-xen", VCPUs: 6, MemBytes: 24 << 30})
	if err != nil {
		t.Fatal(err)
	}
	gh := l1.InstallHypervisor(Xen{}, "xen-L1")
	l2, err := gh.CreateVM(hyper.VMConfig{Name: "L2-vm", VCPUs: 4, MemBytes: 12 << 30})
	if err != nil {
		t.Fatal(err)
	}
	return d, w, l1, l2
}

func TestXenForwardedExitCostlierThanKVM(t *testing.T) {
	_, wx, _, l2x := buildXenOnKVM(t, 0)
	xen, err := wx.Execute(l2x.VCPUs[0], hyper.Hypercall())
	if err != nil {
		t.Fatal(err)
	}

	m := machine.MustNew(machine.Config{Name: "kvm-ref", CPUs: 10, MemoryBytes: 64 << 30, Caps: vmx.HardwareCaps})
	host := hyper.NewHost(m, hyper.KVM{})
	wk := hyper.NewWorld(host)
	l1, _ := host.CreateVM(hyper.VMConfig{Name: "L1", VCPUs: 6, MemBytes: 24 << 30})
	gh := l1.InstallHypervisor(hyper.KVM{}, "kvm-L1")
	l2, _ := gh.CreateVM(hyper.VMConfig{Name: "L2", VCPUs: 4, MemBytes: 12 << 30})
	kvm, err := wk.Execute(l2.VCPUs[0], hyper.Hypercall())
	if err != nil {
		t.Fatal(err)
	}
	if xen <= kvm {
		t.Errorf("Xen forwarded hypercall (%v) should exceed KVM's (%v)", xen, kvm)
	}
	if xen > 3*kvm {
		t.Errorf("Xen forwarded hypercall (%v) is implausibly far above KVM's (%v)", xen, kvm)
	}
}

func TestXenParavirtualCascade(t *testing.T) {
	_, w, l1, l2 := buildXenOnKVM(t, 0)
	if _, err := hyper.AttachParavirt(l1, hyper.DevNet, "net0"); err != nil {
		t.Fatal(err)
	}
	dev, err := hyper.AttachParavirt(l2, hyper.DevNet, "net1")
	if err != nil {
		t.Fatal(err)
	}
	cost, err := w.Execute(l2.VCPUs[0], hyper.DevNotify(dev.Doorbell))
	if err != nil {
		t.Fatal(err)
	}
	if cost < 45_000 {
		t.Errorf("Xen nested paravirtual kick = %v cycles; expected heavy forwarding", cost)
	}
	if w.Host.Machine.Stats.TotalHandledAt(1) == 0 {
		t.Error("Xen guest hypervisor never ran")
	}
}

func TestXenUsesDVHVPWithoutModification(t *testing.T) {
	// The hypervisor-agnostic claim: DVH-VP works under an unmodified Xen
	// guest hypervisor because it only exercises the passthrough framework.
	d, w, _, l2 := buildXenOnKVM(t, core.FeaturesVP)
	dev, err := d.AttachVirtualPassthrough(l2, hyper.DevNet, "vp-net0")
	if err != nil {
		t.Fatal(err)
	}
	stats := w.Host.Machine.Stats
	stats.Reset()
	cost, err := w.Execute(l2.VCPUs[0], hyper.DevNotify(dev.Doorbell))
	if err != nil {
		t.Fatal(err)
	}
	if stats.GuestHypervisorExits() != 0 {
		t.Errorf("DVH-VP under Xen produced %d guest hypervisor exits", stats.GuestHypervisorExits())
	}
	if cost > 16_000 {
		t.Errorf("DVH-VP kick under Xen = %v cycles, want host-handled magnitude", cost)
	}
}

func TestXenWithoutDVHAwarenessForwardsTimers(t *testing.T) {
	// Xen is not DVH-aware beyond VP: timer programming from the nested VM
	// still forwards to the Xen guest hypervisor even when the host has the
	// virtual-timer feature available, because Xen never sets the enable bit.
	d, w, _, l2 := buildXenOnKVM(t, core.FeaturesVP)
	_ = d
	cost, err := w.Execute(l2.VCPUs[0], hyper.ProgramTimer(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if cost < 30_000 {
		t.Errorf("Xen nested timer program = %v; without guest awareness it must forward", cost)
	}
}
