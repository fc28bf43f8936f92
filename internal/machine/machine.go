// Package machine assembles the physical platform the simulation runs on:
// CPUs with local APICs, host physical memory, an SR-IOV capable NIC, and
// the discrete-event engine and stats sink everything shares. A VT-d style
// IOMMU is a capability bit (vmx.CapIOMMU, with vmx.CapIOMMUPostedInterrupts
// for interrupt posting): DMA translation is charged from calibrated costs,
// so the unit has no state of its own. The default topology mirrors the
// paper's CloudLab c220g-class servers (Xeon Silver 4114, 10 GbE X520).
package machine

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/pci"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"

	"repro/internal/apic"
)

// PCPU is one physical CPU.
type PCPU struct {
	ID    int
	LAPIC *apic.LAPIC
	// Busy accumulates cycles of work executed on this CPU; workload drivers
	// use it to compute per-CPU utilization.
	Busy sim.Cycles
}

// NIC is the physical network adapter: a PCI function with SR-IOV.
type NIC struct {
	Fn *pci.Function
	// TxFrames/RxFrames count frames crossing the wire.
	TxFrames, RxFrames uint64
}

// Config sizes a machine.
type Config struct {
	// Name labels the machine in reports.
	Name string
	// CPUs is the physical core count (paper: 20 cores across two sockets,
	// hyperthreading disabled; experiments pin at most 10).
	CPUs int
	// MemoryBytes is host RAM (paper: 192 GB; the simulator allocates
	// sparsely so the full size is cheap).
	MemoryBytes uint64
	// ClockHz is the core clock (default 2.2 GHz).
	ClockHz uint64
	// Caps advertises platform virtualization features.
	Caps vmx.Caps
	// NICVFs is the number of SR-IOV virtual functions to provision.
	NICVFs int
}

// DefaultConfig returns the paper's testbed shape.
func DefaultConfig(name string) Config {
	return Config{
		Name:        name,
		CPUs:        20,
		MemoryBytes: 192 << 30,
		ClockHz:     sim.DefaultClockHz,
		Caps:        vmx.HardwareCaps,
		NICVFs:      8,
	}
}

// Machine is the assembled platform.
type Machine struct {
	Name    string
	Engine  *sim.Engine
	Stats   *trace.Stats
	Caps    vmx.Caps
	ClockHz uint64

	CPUs   []*PCPU
	Memory *mem.AddressSpace
	NIC    *NIC

	// TopoGen counts VM-topology mutations on this machine (VM creation and
	// destruction, hypervisor installation, vCPU repinning). Per-vCPU caches
	// derived from the nesting topology — the hypervisor stack the exit path
	// walks — carry the generation they were built at and rebuild when it
	// moves, which keeps the steady-state exit path allocation-free.
	TopoGen uint64
	// CostGen counts cost-model mutations (World.SetCosts). Compiled forward
	// plans bake calibrated cycle costs in, so any recalibration must move
	// this generation; direct field pokes on a World's CostModel bypass the
	// cache contract and are reserved for setup before the first exit.
	CostGen uint64
	// CapsGen counts capability-word mutations after setup (DVH enablement
	// advertising virtual-hardware bits, vIOMMU provisioning, tests toggling
	// VMCS shadowing). Plans depend on host capabilities, so mutating a caps
	// word without moving this generation leaves stale compiled plans behind.
	CapsGen uint64
}

// New assembles a machine from the config.
func New(cfg Config) (*Machine, error) {
	if cfg.CPUs <= 0 {
		return nil, fmt.Errorf("machine: need at least one CPU")
	}
	if cfg.ClockHz == 0 {
		cfg.ClockHz = sim.DefaultClockHz
	}
	m := &Machine{
		Name:    cfg.Name,
		Engine:  sim.NewEngine(),
		Stats:   &trace.Stats{},
		Caps:    cfg.Caps,
		ClockHz: cfg.ClockHz,
		Memory:  mem.NewAddressSpace(cfg.Name+"/ram", cfg.MemoryBytes),
	}
	for i := 0; i < cfg.CPUs; i++ {
		m.CPUs = append(m.CPUs, &PCPU{ID: i, LAPIC: apic.NewLAPIC(uint32(i))})
	}

	// Physical 10 GbE NIC (Intel X520-DA2) with SR-IOV.
	nicFn := pci.NewFunction("x520", 0x8086, 0x10fb, 0x020000)
	m.NIC = &NIC{Fn: nicFn}
	if cfg.Caps.Has(vmx.CapSRIOV) && cfg.NICVFs > 0 {
		if err := pci.EnableSRIOV(nicFn, uint16(cfg.NICVFs)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// MustNew is New for tests and examples with known-good configs.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		//nvlint:ignore nopanic documented Must helper; callers assert known-good configs
		panic(err)
	}
	return m
}

// CPU returns physical CPU i, or an error when the index is outside the
// machine's topology (a corrupted pin or a stale vCPU placement).
func (m *Machine) CPU(i int) (*PCPU, error) {
	if i < 0 || i >= len(m.CPUs) {
		return nil, fmt.Errorf("machine %s: CPU %d out of range (0..%d)", m.Name, i, len(m.CPUs)-1)
	}
	return m.CPUs[i], nil
}

// CreateVFs provisions n SR-IOV virtual functions on the physical NIC.
func (m *Machine) CreateVFs(n int) ([]*pci.Function, error) {
	return pci.CreateVFs(m.NIC.Fn, n)
}
