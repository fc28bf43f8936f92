package hyperv

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/machine"
	"repro/internal/vmx"
)

func buildHyperVOnKVM(t *testing.T, features core.Features) (*core.DVH, *hyper.World, *hyper.VM) {
	t.Helper()
	m := machine.MustNew(machine.Config{Name: "hv-test", CPUs: 10, MemoryBytes: 64 << 30, Caps: vmx.HardwareCaps})
	host := hyper.NewHost(m, hyper.KVM{})
	w := hyper.NewWorld(host)
	var d *core.DVH
	if features != 0 {
		var err error
		if d, err = core.Enable(w, features); err != nil {
			t.Fatal(err)
		}
	}
	l1, err := host.CreateVM(hyper.VMConfig{Name: "L1-win", VCPUs: 6, MemBytes: 24 << 30})
	if err != nil {
		t.Fatal(err)
	}
	gh := l1.InstallHypervisor(HyperV{}, "hyperv-L1")
	l2, err := gh.CreateVM(hyper.VMConfig{Name: "L2-vbs", VCPUs: 4, MemBytes: 12 << 30})
	if err != nil {
		t.Fatal(err)
	}
	return d, w, l2
}

func TestHyperVForwardedExitMagnitude(t *testing.T) {
	// The VBS scenario: Windows' hypervisor nested on a KVM cloud host.
	// Its forwarded exits must land in the same order of magnitude as the
	// other personalities — tens of thousands of cycles.
	_, w, l2 := buildHyperVOnKVM(t, 0)
	c, err := w.Execute(l2.VCPUs[0], hyper.Hypercall())
	if err != nil {
		t.Fatal(err)
	}
	if c < 20_000 || c > 80_000 {
		t.Fatalf("Hyper-V forwarded hypercall = %v cycles", c)
	}
}

func TestHyperVUsesDVHVPUnmodified(t *testing.T) {
	d, w, l2 := buildHyperVOnKVM(t, core.FeaturesVP)
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
		t.Error("DVH-VP under Hyper-V involved the guest hypervisor")
	}
	if cost > 16_000 {
		t.Errorf("DVH-VP kick = %v cycles", cost)
	}
}

func TestHyperVNotDVHAware(t *testing.T) {
	// Beyond VP, Hyper-V never sets the DVH enable bits: timers forward.
	_, w, l2 := buildHyperVOnKVM(t, core.FeaturesVP)
	c, err := w.Execute(l2.VCPUs[0], hyper.ProgramTimer(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if c < 25_000 {
		t.Fatalf("Hyper-V nested timer = %v; must forward without guest awareness", c)
	}
}
