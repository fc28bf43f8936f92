package machine

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/vmx"
)

func TestDefaultConfigShape(t *testing.T) {
	cfg := DefaultConfig("paper")
	if cfg.CPUs != 20 {
		t.Errorf("CPUs = %d, want the testbed's 20", cfg.CPUs)
	}
	if cfg.MemoryBytes != 192<<30 {
		t.Errorf("memory = %d, want 192 GB", cfg.MemoryBytes)
	}
	if cfg.ClockHz != sim.DefaultClockHz {
		t.Errorf("clock = %d", cfg.ClockHz)
	}
	if !cfg.Caps.Has(vmx.HardwareCaps) {
		t.Error("default caps missing hardware features")
	}
}

func TestNewMachine(t *testing.T) {
	m, err := New(DefaultConfig("m0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.CPUs) != 20 {
		t.Fatalf("built %d CPUs", len(m.CPUs))
	}
	cpu3, err := m.CPU(3)
	if err != nil {
		t.Fatal(err)
	}
	if cpu3.LAPIC.ID() != 3 {
		t.Error("LAPIC IDs not sequential")
	}
	if !m.Caps.Has(vmx.CapIOMMU | vmx.CapIOMMUPostedInterrupts) {
		t.Error("VT-d with posted interrupts expected")
	}
	if m.NIC == nil {
		t.Error("NIC expected")
	}
	if m.Engine == nil || m.Stats == nil {
		t.Error("engine/stats missing")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Name: "bad", CPUs: 0}); err == nil {
		t.Fatal("zero CPUs accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on bad config")
		}
	}()
	MustNew(Config{Name: "bad", CPUs: -1})
}

func TestCPUOutOfRange(t *testing.T) {
	m := MustNew(Config{Name: "m", CPUs: 2, MemoryBytes: 1 << 30})
	if _, err := m.CPU(99); err == nil {
		t.Fatal("CPU(99) should return an error")
	}
	if _, err := m.CPU(-1); err == nil {
		t.Fatal("CPU(-1) should return an error")
	}
	if cpu, err := m.CPU(1); err != nil || cpu == nil {
		t.Fatalf("CPU(1) should succeed, got %v, %v", cpu, err)
	}
}

func TestNoIOMMUWithoutCap(t *testing.T) {
	m := MustNew(Config{
		Name: "m", CPUs: 2, MemoryBytes: 1 << 30,
		Caps: vmx.HardwareCaps.Without(vmx.CapIOMMU),
	})
	if m.Caps.Has(vmx.CapIOMMU) {
		t.Fatal("IOMMU advertised without the capability")
	}
}

func TestCreateVFs(t *testing.T) {
	m := MustNew(Config{Name: "m", CPUs: 2, MemoryBytes: 1 << 30, Caps: vmx.HardwareCaps, NICVFs: 4})
	vfs, err := m.CreateVFs(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(vfs) != 4 {
		t.Fatalf("created %d VFs", len(vfs))
	}
	if _, err := m.CreateVFs(1); err == nil {
		t.Fatal("exceeding NICVFs should fail")
	}
}
