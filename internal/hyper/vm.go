package hyper

import (
	"fmt"

	"repro/internal/apic"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vmx"
)

// Hypervisor is one hypervisor in the nesting stack. Level 0 runs on the
// physical machine; a hypervisor at level k runs inside a VM at level k and
// manages VMs at level k+1.
type Hypervisor struct {
	Name        string
	Level       int
	Personality Personality
	Machine     *machine.Machine
	// Caps is what this hypervisor discovers beneath it: hardware features
	// for L0, whatever its host exposes (possibly including DVH virtual
	// hardware) for guest hypervisors.
	Caps vmx.Caps
	// HostVM is the VM this hypervisor runs in (nil at level 0).
	HostVM *VM
	// Guests are the VMs it manages.
	Guests []*VM

	carveNext mem.PFN // next free frame in this hypervisor's own memory
	sched     *Scheduler
}

// NewHost creates the L0 hypervisor on a machine.
func NewHost(m *machine.Machine, p Personality) *Hypervisor {
	return &Hypervisor{
		Name:        p.Name() + "-L0",
		Personality: p,
		Machine:     m,
		Caps:        m.Caps,
		carveNext:   1, // leave frame 0 unused
	}
}

// carve reserves n contiguous frames of this hypervisor's memory. For a
// guest hypervisor the reservation comes from its host VM's single page
// allocator, so VM memory never aliases the pages that VM hands out for its
// own structures (mapping tables, DMA buffers).
func (h *Hypervisor) carve(n mem.PFN) (mem.PFN, error) {
	if h.HostVM != nil {
		base := h.HostVM.allocNext
		if base+n > h.HostVM.NumPages {
			return 0, fmt.Errorf("hyper: %s out of memory carving %d pages from %s", h.Name, n, h.HostVM.Name)
		}
		h.HostVM.allocNext += n
		return base, nil
	}
	if h.carveNext+n > h.Machine.Memory.NumPages() {
		return 0, fmt.Errorf("hyper: %s out of host memory carving %d pages", h.Name, n)
	}
	base := h.carveNext
	h.carveNext += n
	return base, nil
}

// VMConfig sizes a virtual machine.
type VMConfig struct {
	Name     string
	VCPUs    int
	MemBytes uint64
	// Pin maps each vCPU to a CPU of the level below: physical CPU IDs for
	// an L1 VM, parent vCPU indexes for deeper VMs. Defaults to identity.
	Pin []int
}

// VM is a virtual machine at some nesting level.
type VM struct {
	Name  string
	Level int
	Owner *Hypervisor
	// Caps is the virtualization capability word Owner exposes inside.
	Caps vmx.Caps

	NumPages   mem.PFN
	parentBase mem.PFN        // where this VM's memory sits in Owner's memory
	EPT        *mem.PageTable // GPA frame → owner-level frame (lazily filled)

	VCPUs   []*VCPU
	Devices []*AssignedDevice
	// GuestHyp is the hypervisor running inside, if any.
	GuestHyp *Hypervisor

	dirty   *mem.Bitmap // non-nil while dirty logging
	written *mem.Bitmap

	allocNext mem.PFN  // guest-page allocator for drivers/workloads
	mmioNext  mem.Addr // doorbell window allocator
}

// VCPU is one virtual CPU.
type VCPU struct {
	VM *VM
	ID int
	// LAPIC is the vCPU's local APIC (virtualized by APICv).
	LAPIC *apic.LAPIC
	// PID is the posted-interrupt descriptor the running hypervisor
	// maintains for this vCPU.
	PID *apic.PIDescriptor
	// VMCS is the control structure Owner maintains to run this vCPU.
	VMCS *vmx.VMCS
	// Parent is the vCPU of the owner's VM this vCPU is scheduled on (nil
	// when the owner is L0).
	Parent *VCPU
	// PhysCPU is the physical CPU the whole ancestry is pinned to, following
	// the paper's pinned measurement setup.
	PhysCPU int
	// Idle marks a vCPU blocked in HLT.
	Idle bool

	// timer is the host hrtimer behind the LAPIC TSC deadline, armed on the
	// machine's engine by World.armHostTimer; timerWorld is the world that
	// last armed it, through which an expiry is delivered.
	timer      sim.Timer
	timerWorld *World

	// stackCache memoizes World.stack for this vCPU — the hypervisor at
	// each level beneath it — valid while stackGen matches the machine's
	// TopoGen. The exit path consults it on every operation.
	stackCache []*Hypervisor
	stackGen   uint64

	// plans caches this vCPU's compiled plans (plan.go), one per (exit
	// reason or delivery kind, level), valid for one (TopoGen, CostGen,
	// CapsGen) generation triple. Lazily allocated on the first cached call.
	plans *planTable
}

// CreateVM builds a VM under this hypervisor.
func (h *Hypervisor) CreateVM(cfg VMConfig) (*VM, error) {
	if cfg.VCPUs <= 0 {
		return nil, fmt.Errorf("hyper: VM %q needs at least one vCPU", cfg.Name)
	}
	pages := mem.PFN((cfg.MemBytes + mem.PageSize - 1) / mem.PageSize)
	base, err := h.carve(pages)
	if err != nil {
		return nil, err
	}
	vm := &VM{
		Name:       cfg.Name,
		Level:      h.Level + 1,
		Owner:      h,
		Caps:       h.grantCaps(),
		NumPages:   pages,
		parentBase: base,
		EPT:        mem.NewPageTable(),
		written:    mem.NewBitmap(uint64(pages)),
		allocNext:  16, // leave a low region for firmware-ish structures
		mmioNext:   0xf000_0000,
	}
	pin := cfg.Pin
	if pin == nil {
		pin = make([]int, cfg.VCPUs)
		for i := range pin {
			pin[i] = i
		}
	}
	if len(pin) != cfg.VCPUs {
		return nil, fmt.Errorf("hyper: VM %q pin list has %d entries for %d vCPUs", cfg.Name, len(pin), cfg.VCPUs)
	}
	for i := 0; i < cfg.VCPUs; i++ {
		v := &VCPU{
			VM:    vm,
			ID:    i,
			LAPIC: apic.NewLAPIC(uint32(i)),
			VMCS:  vmx.NewVMCS(),
		}
		if h.HostVM != nil {
			if pin[i] >= len(h.HostVM.VCPUs) {
				return nil, fmt.Errorf("hyper: VM %q vCPU %d pinned to missing parent vCPU %d", cfg.Name, i, pin[i])
			}
			v.Parent = h.HostVM.VCPUs[pin[i]]
			v.PhysCPU = v.Parent.PhysCPU
		} else {
			if pin[i] >= len(h.Machine.CPUs) {
				return nil, fmt.Errorf("hyper: VM %q vCPU %d pinned to missing physical CPU %d", cfg.Name, i, pin[i])
			}
			v.PhysCPU = pin[i]
		}
		v.PID = apic.NewPIDescriptor(v.PhysCPU)
		v.timer = sim.NewTimer(v.expireTimer)
		h.initVMCS(v)
		vm.VCPUs = append(vm.VCPUs, v)
	}
	h.Guests = append(h.Guests, vm)
	h.Machine.TopoGen++
	return vm, nil
}

// initVMCS sets the baseline execution controls a KVM-style hypervisor uses.
func (h *Hypervisor) initVMCS(v *VCPU) {
	c := v.VMCS
	c.SetControl(vmx.FieldPinBasedControls, vmx.PinExternalInterruptExiting|vmx.PinNMIExiting)
	c.SetControl(vmx.FieldProcBasedControls,
		vmx.ProcHLTExiting|vmx.ProcUseTSCOffsetting|vmx.ProcUseMSRBitmaps|vmx.ProcActivateSecondary)
	sec := vmx.Proc2EnableEPT
	if h.Caps.Has(vmx.CapAPICv) {
		sec |= vmx.Proc2APICRegisterVirt | vmx.Proc2VirtualIntrDelivery
	}
	if h.Caps.Has(vmx.CapPostedInterrupts) {
		c.SetControl(vmx.FieldPinBasedControls, vmx.PinProcessPostedInterrupts)
	}
	c.SetControl(vmx.FieldProcBasedControls2, sec)
	c.Load()
}

// grantCaps computes what a freshly created VM sees: the virtualization
// features the owner can virtualize for it. Platform device features (IOMMU,
// SR-IOV) are *not* passed through by default — they appear only when the
// owner explicitly provides a vIOMMU or assigns a VF. DVH capability bits are
// added by the DVH layer (package core), not here.
func (h *Hypervisor) grantCaps() vmx.Caps {
	return h.Caps.Without(vmx.CapIOMMU | vmx.CapIOMMUPostedInterrupts | vmx.CapSRIOV |
		vmx.CapVirtualTimer | vmx.CapVirtualIPI)
}

// InstallHypervisor places a guest hypervisor inside the VM. The VM's vCPUs
// become the new hypervisor's CPUs; with VMCS shadowing available at L0, the
// host links shadow VMCS structures so this (level-1) hypervisor's
// VMREAD/VMWRITEs do not exit.
func (vm *VM) InstallHypervisor(p Personality, name string) *Hypervisor {
	gh := &Hypervisor{
		Name:        name,
		Level:       vm.Level,
		Personality: p,
		Machine:     vm.Owner.Machine,
		Caps:        vm.Caps,
		HostVM:      vm,
		carveNext:   1,
	}
	vm.GuestHyp = gh
	vm.Owner.Machine.TopoGen++
	if vm.Level == 1 && vm.Owner.Caps.Has(vmx.CapVMCSShadowing) {
		for _, v := range vm.VCPUs {
			v.VMCS.LinkShadow(vmx.NewVMCS())
		}
	}
	return gh
}

// ProvideVIOMMU exposes a virtual IOMMU inside the VM. posted selects
// whether the vIOMMU advertises interrupt posting (the paper's full DVH
// configuration adds this; plain DVH-VP runs without it). The vIOMMU is its
// capability bits: DMA translation is charged from calibrated costs, and
// virtual-passthrough folds the chain into the host's shadow table
// (core.VPState), so no per-level tables are kept.
func (vm *VM) ProvideVIOMMU(posted bool) {
	vm.Caps = vm.Caps.With(vmx.CapIOMMU)
	if posted {
		vm.Caps = vm.Caps.With(vmx.CapIOMMUPostedInterrupts)
	}
	if vm.GuestHyp != nil {
		vm.GuestHyp.Caps = vm.Caps
	}
	// Capability words shape compiled plans; like SetHostCaps, a
	// post-setup vIOMMU grant must move CapsGen or a cached plan would
	// replay the pre-vIOMMU exit tree.
	vm.Owner.Machine.CapsGen++
}

// HasVIOMMU reports whether Owner exposes a virtual IOMMU inside the VM,
// which any passthrough out of this VM requires.
func (vm *VM) HasVIOMMU() bool { return vm.Caps.Has(vmx.CapIOMMU) }

// AllocPages reserves n guest pages for drivers and workloads, returning the
// base address. Exhaustion is an error, not a panic: how much a driver or
// workload asks for is caller input, not an internal invariant.
func (vm *VM) AllocPages(n int) (mem.Addr, error) {
	if n < 0 {
		return 0, fmt.Errorf("hyper: VM %s negative page allocation %d", vm.Name, n)
	}
	if vm.allocNext+mem.PFN(n) > vm.NumPages {
		return 0, fmt.Errorf("hyper: VM %s guest allocator exhausted: %d pages requested, %d free",
			vm.Name, n, uint64(vm.NumPages-vm.allocNext))
	}
	base := vm.allocNext
	vm.allocNext += mem.PFN(n)
	return base.Base(), nil
}

// MustAllocPages is AllocPages for callers with statically known-good sizes.
func (vm *VM) MustAllocPages(n int) mem.Addr {
	base, err := vm.AllocPages(n)
	if err != nil {
		//nvlint:ignore nopanic documented Must helper; callers assert statically known-good sizes
		panic(err)
	}
	return base
}

// AllocMMIO reserves a doorbell window in guest physical space, outside RAM.
func (vm *VM) AllocMMIO(size int) mem.Addr {
	base := vm.mmioNext
	vm.mmioNext += mem.Addr((size + mem.PageSize - 1) &^ (mem.PageSize - 1))
	return base
}

// EnsureMapped installs the EPT translation for a guest frame (identity plus
// the VM's carve base), the lazy fault-in a hypervisor performs.
func (vm *VM) EnsureMapped(p mem.PFN) (mem.PFN, error) {
	return vm.ensureMapped(p, 0)
}

// ensureMapped is EnsureMapped carrying the access kind, so the EPT's
// hardware A/D bits track the access like a real walk would.
func (vm *VM) ensureMapped(p mem.PFN, access mem.Perm) (mem.PFN, error) {
	if p >= vm.NumPages {
		return 0, fmt.Errorf("hyper: VM %s access beyond RAM: frame %#x", vm.Name, uint64(p))
	}
	if w := vm.EPT.Lookup(p, access); w.Present {
		return w.PFN, nil
	}
	return vm.faultIn(p, access), nil
}

// faultIn installs the translation for a frame's first touch. Building
// page-table nodes legitimately allocates; steady-state accesses hit the
// existing mapping and never get here.
//
//nvlint:cold
func (vm *VM) faultIn(p mem.PFN, access mem.Perm) mem.PFN {
	target := vm.parentBase + p
	vm.EPT.Map(p, target, mem.PermRWX)
	if access != 0 {
		vm.EPT.Lookup(p, access) // stamp A/D on the fresh mapping
	}
	return target
}

// TranslateToHost resolves a guest-physical address down the whole nesting
// chain to a machine physical address, faulting mappings in along the way.
func (vm *VM) TranslateToHost(a mem.Addr) (mem.Addr, error) {
	return vm.translateToHost(a, mem.PermRead)
}

func (vm *VM) translateToHost(a mem.Addr, access mem.Perm) (mem.Addr, error) {
	pf, err := vm.ensureMapped(mem.PageOf(a), access)
	if err != nil {
		return 0, err
	}
	parentAddr := pf.Base() + (a & (mem.PageSize - 1))
	if vm.Owner.HostVM == nil {
		return parentAddr, nil
	}
	return vm.Owner.HostVM.translateToHost(parentAddr, access)
}

// Memory returns a byte-addressable view of the VM's guest-physical memory,
// backed (through the EPT chain) by machine memory, with per-level dirty
// tracking on writes.
func (vm *VM) Memory() GuestMemory { return GuestMemory{vm: vm} }

// StartDirtyLog begins recording written guest frames (pre-copy migration).
func (vm *VM) StartDirtyLog() { vm.dirty = mem.NewBitmap(uint64(vm.NumPages)) }

// StopDirtyLog ends recording.
func (vm *VM) StopDirtyLog() { vm.dirty = nil }

// DirtyLogActive reports whether a log is recording.
func (vm *VM) DirtyLogActive() bool { return vm.dirty != nil }

// CollectDirty drains the dirty log, returning its frames in ascending
// order, and resets it in place.
func (vm *VM) CollectDirty() []mem.PFN {
	if vm.dirty == nil {
		return nil
	}
	out := vm.dirty.PFNs()
	vm.dirty.Reset()
	return out
}

// PeekDirty returns the currently logged dirty frames without draining the
// log (CollectDirty drains; an invariant sweep must not perturb state).
func (vm *VM) PeekDirty() []mem.PFN {
	if vm.dirty == nil {
		return nil
	}
	return vm.dirty.PFNs()
}

// WrittenPages returns every guest frame ever written.
func (vm *VM) WrittenPages() []mem.PFN { return vm.written.PFNs() }

// Written reports whether a guest frame has ever been written.
func (vm *VM) Written(p mem.PFN) bool { return vm.written.Test(uint64(p)) }

// markWrite records a write for dirty tracking at this level and recurses to
// the levels below (an L2 write dirties the containing L1 pages too).
func (vm *VM) markWrite(p mem.PFN) {
	vm.written.Set(uint64(p))
	if vm.dirty != nil {
		vm.dirty.Set(uint64(p))
	}
	if vm.Owner.HostVM != nil {
		vm.Owner.HostVM.markWrite(vm.parentBase + p)
	}
}

// GuestMemory is a VM's guest-physical space as software inside it sees
// it. All bytes live in machine memory; reads and writes translate
// through the EPT chain, and writes update every level's dirty bookkeeping.
type GuestMemory struct {
	vm *VM
}

// Read copies bytes out of guest memory.
func (g GuestMemory) Read(a mem.Addr, buf []byte) error {
	for off := 0; off < len(buf); {
		host, n, err := g.chunk(a+mem.Addr(off), len(buf)-off, mem.PermRead)
		if err != nil {
			return err
		}
		if err := g.vm.Owner.Machine.Memory.Read(host, buf[off:off+n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// Write copies bytes into guest memory, marking dirty pages at every level.
func (g GuestMemory) Write(a mem.Addr, buf []byte) error {
	for off := 0; off < len(buf); {
		ga := a + mem.Addr(off)
		host, n, err := g.chunk(ga, len(buf)-off, mem.PermWrite)
		if err != nil {
			return err
		}
		g.vm.markWrite(mem.PageOf(ga))
		if err := g.vm.Owner.Machine.Memory.Write(host, buf[off:off+n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// SharePageTo gives frame p of dst the content of frame p of g without
// moving bytes: the two machine frames share one backing page copy-on-write
// (mem.SharePage). The source is translated for read and the destination for
// write, and the write is recorded at every destination level, so EPT A/D
// bits and dirty logs end up exactly as after reading the page from g and
// writing it to dst.
func (g GuestMemory) SharePageTo(dst GuestMemory, p mem.PFN) error {
	hs, err := g.vm.translateToHost(p.Base(), mem.PermRead)
	if err != nil {
		return err
	}
	hd, err := dst.vm.translateToHost(p.Base(), mem.PermWrite)
	if err != nil {
		return err
	}
	dst.vm.markWrite(p)
	return mem.SharePage(g.vm.Owner.Machine.Memory, mem.PageOf(hs), dst.vm.Owner.Machine.Memory, mem.PageOf(hd))
}

// chunk translates the piece of [a, a+n) that lies in a's page, with the
// access kind so EPT A/D bits at every level record it, and returns its host
// address and length.
func (g GuestMemory) chunk(a mem.Addr, n int, access mem.Perm) (mem.Addr, int, error) {
	host, err := g.vm.translateToHost(a, access)
	return host, min(mem.PageSize-int(a&(mem.PageSize-1)), n), err
}

// ReadU64 reads a little-endian quadword from guest memory.
func (g GuestMemory) ReadU64(a mem.Addr) (uint64, error) {
	var b [8]byte
	if err := g.Read(a, b[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

// WriteU64 writes a little-endian quadword into guest memory.
func (g GuestMemory) WriteU64(a mem.Addr, v uint64) error {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return g.Write(a, b[:])
}

// AncestorAt returns the vCPU in this vCPU's scheduling ancestry whose VM is
// at the given level (level must be between 1 and the vCPU's own level).
func (v *VCPU) AncestorAt(level int) (*VCPU, error) {
	cur := v
	for cur != nil {
		if cur.VM.Level == level {
			return cur, nil
		}
		cur = cur.Parent
	}
	return nil, fmt.Errorf("hyper: no ancestor of %s/vcpu%d at level %d", v.VM.Name, v.ID, level)
}

// Path renders the nesting ancestry for diagnostics. It allocates freely and
// is only ever called to label an error that aborts the operation anyway.
func (v *VCPU) Path() string {
	s := fmt.Sprintf("%s/vcpu%d", v.VM.Name, v.ID)
	if v.Parent != nil {
		return v.Parent.Path() + "->" + s
	}
	return fmt.Sprintf("pcpu%d->%s", v.PhysCPU, s)
}
