package hyper

import (
	"fmt"

	"repro/internal/apic"
	"repro/internal/mem"
	"repro/internal/pci"
	"repro/internal/vmx"
)

// DeviceClass distinguishes the modeled device types.
type DeviceClass int

const (
	// DevNet is a network device.
	DevNet DeviceClass = iota
	// DevBlk is a block device.
	DevBlk
)

// AssignedDevice is a device as seen by one VM: which model backs it, which
// hypervisor level emulates it (or none, for physical passthrough), where its
// doorbell lives in the VM's physical address space, and how its completion
// interrupts reach the VM. The four I/O configurations of the paper map to:
//
//   - paravirtual:          ProviderLevel = VM.Level-1, Lower chains downward
//   - device passthrough:   Fn is an SR-IOV VF, ProviderLevel = -1 (no interposition)
//   - virtual-passthrough:  ProviderLevel = 0 for a VM.Level >= 2, VP = true
//   - non-nested virtual:   ProviderLevel = 0 for a VM.Level == 1
type AssignedDevice struct {
	Name  string
	Class DeviceClass
	VM    *VM

	// Fn is the device's PCI function: a virtio function for an emulated
	// device, an SR-IOV virtual function for passthrough.
	Fn *pci.Function

	// ProviderLevel is the hypervisor level that emulates the device; -1
	// means real hardware (passthrough).
	ProviderLevel int
	// VP marks host-provided devices directly assigned to a nested VM.
	VP bool
	// Lower is the device the provider itself uses to reach the hardware
	// (the paravirtual cascade); nil when the provider is L0 or physical.
	Lower *AssignedDevice

	// Doorbell is the queue-notify MMIO window in the VM's physical space.
	Doorbell     mem.Addr
	DoorbellSize mem.Addr
	// IRQ is the completion interrupt vector.
	IRQ apic.Vector
	// PostedDelivery reports that completion interrupts reach the VM's vCPU
	// without an exit on the delivery path (APICv/posted interrupts for
	// host-provided devices, VT-d posting for passthrough, vIOMMU posting
	// for virtual-passthrough).
	PostedDelivery bool
	// DMAView is the view a virtual-passthrough device's DMA writes go
	// through: nested-VM addresses translate through the host's combined
	// shadow table and dirty the host-side log. Nil for other devices.
	DMAView DMA

	// TxFrames/RxFrames (net) and Reads/Writes (blk) are the virtio device's
	// completion counters, the device state the migration capability
	// captures and restores.
	TxFrames, RxFrames, Reads, Writes uint64
}

// DMA is a device's write path into guest memory.
type DMA interface {
	Write(a mem.Addr, buf []byte) error
}

// Virtual reports whether the device is emulated (as opposed to physical).
func (d *AssignedDevice) Virtual() bool { return d.ProviderLevel >= 0 }

// FindDeviceByDoorbell locates the device owning an MMIO address.
func (vm *VM) FindDeviceByDoorbell(a mem.Addr) *AssignedDevice {
	for _, d := range vm.Devices {
		if a >= d.Doorbell && a < d.Doorbell+d.DoorbellSize {
			return d
		}
	}
	return nil
}

// FindDevice returns the first device of the given class.
func (vm *VM) FindDevice(c DeviceClass) *AssignedDevice {
	for _, d := range vm.Devices {
		if d.Class == c {
			return d
		}
	}
	return nil
}

// virtioIDs is each class's virtio PCI identity: the guest driver that binds
// it, the device ID under the virtio vendor ID, and the PCI class code.
var virtioIDs = [...]struct {
	driver   string
	deviceID uint16
	pciClass uint32
}{
	DevNet: {"virtio-net", 0x1000, 0x020000},
	DevBlk: {"virtio-blk", 0x1001, 0x010000},
}

// NewVirtioFunction builds the PCI function of a class's virtio device
// (vendor 0x1af4).
func NewVirtioFunction(name string, class DeviceClass) *pci.Function {
	id := virtioIDs[class]
	return pci.NewFunction(name, 0x1af4, id.deviceID, id.pciClass)
}

// AttachParavirt gives the VM a virtio device of the given class emulated by
// its own hypervisor (the traditional virtual I/O model). For a nested VM
// this builds the cascade: the provider's own device of the same class
// becomes the lower link.
func AttachParavirt(vm *VM, class DeviceClass, name string) (*AssignedDevice, error) {
	fn := NewVirtioFunction(name, class)
	if err := fn.Bind(virtioIDs[class].driver); err != nil {
		return nil, err
	}
	dev := &AssignedDevice{
		Name:          name,
		Class:         class,
		VM:            vm,
		Fn:            fn,
		ProviderLevel: vm.Owner.Level,
		Doorbell:      vm.AllocMMIO(mem.PageSize),
		DoorbellSize:  mem.PageSize,
		// Each class completes on its own vector: net on VectorVirtioIRQ,
		// blk on the next one.
		IRQ: apic.VectorVirtioIRQ + apic.Vector(class),
		// Host-provided virtio with vhost uses posted interrupts; a guest
		// hypervisor's device relies on its (emulated) APICv, which the host
		// backs with real posted interrupts, so delivery into the VM is
		// exit-free in both cases. The *sending* side cost depends on the
		// provider level and is charged by the world engine.
		PostedDelivery: true,
	}
	if hostVM := vm.Owner.HostVM; hostVM != nil {
		lower := hostVM.FindDevice(class)
		if lower == nil {
			return nil, fmt.Errorf("hyper: %s: provider VM %s has no %s device to back the cascade", name, hostVM.Name, virtioIDs[class].driver)
		}
		dev.Lower = lower
	}
	vm.Devices = append(vm.Devices, dev)
	return dev, nil
}

// AttachPassthroughNIC assigns a physical SR-IOV virtual function to the VM
// through the whole nesting chain (device passthrough baseline). Every
// intermediate level must expose an IOMMU for its hypervisor to program; the
// physical IOMMU's posted-interrupt support delivers completions without
// exits, and doorbell MMIO is mapped straight through the EPT chain so kicks
// never exit. The translation itself is charged from calibrated costs, so no
// per-device IOMMU state is kept.
func AttachPassthroughNIC(vm *VM, vf *pci.Function) (*AssignedDevice, error) {
	if vf.VFParent == nil {
		return nil, fmt.Errorf("hyper: %s is not an SR-IOV virtual function", vf.Name)
	}
	// Walk the chain from L1 up to the target VM, checking each level has an
	// IOMMU its hypervisor can program for the assignment.
	m := vm.Owner.Machine
	if !m.Caps.Has(vmx.CapIOMMU) {
		return nil, fmt.Errorf("hyper: passthrough to %s requires a physical IOMMU", vm.Name)
	}
	for cur := vm; cur.Owner.HostVM != nil; cur = cur.Owner.HostVM {
		hostVM := cur.Owner.HostVM
		if !hostVM.HasVIOMMU() {
			return nil, fmt.Errorf("hyper: passthrough to %s requires a virtual IOMMU in %s", vm.Name, hostVM.Name)
		}
	}
	if vf.Driver() != "" {
		return nil, fmt.Errorf("hyper: VF %s still bound to %s; unbind before assignment", vf.Name, vf.Driver())
	}
	if err := vf.Bind("vfio-pci"); err != nil {
		return nil, err
	}
	dev := &AssignedDevice{
		Name:           vf.Name,
		Class:          DevNet,
		VM:             vm,
		Fn:             vf,
		ProviderLevel:  -1,
		Doorbell:       vm.AllocMMIO(mem.PageSize),
		DoorbellSize:   mem.PageSize,
		IRQ:            apic.VectorVirtioIRQ,
		PostedDelivery: m.Caps.Has(vmx.CapIOMMUPostedInterrupts),
	}
	vm.Devices = append(vm.Devices, dev)
	return dev, nil
}
