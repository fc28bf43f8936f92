package hyper

import (
	"fmt"

	"repro/internal/mem"
)

// Lifecycle operations: tearing down VMs, unassigning devices, and moving
// vCPUs between CPUs. The paper's steady-state measurements never need
// these, but migration targets, multi-tenant hosts and the virtual-idle
// policy all do.

// DetachDevice removes a device from the VM: the doorbell window stops
// decoding and the function's driver is unbound, so a passthrough VF can be
// assigned again.
func (vm *VM) DetachDevice(dev *AssignedDevice) error {
	idx := -1
	for i, d := range vm.Devices {
		if d == dev {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("hyper: device %s not attached to %s", dev.Name, vm.Name)
	}
	vm.Devices = append(vm.Devices[:idx], vm.Devices[idx+1:]...)
	dev.Fn.Unbind()
	return nil
}

// Destroy tears the VM down: its devices detach, its EPT is cleared (the
// backing frames return to the owner in the bump-allocator sense of never
// being handed out again — fragmentation is not modeled), any guest
// hypervisor inside dies with it, and the owner forgets it.
func (vm *VM) Destroy() error {
	if vm.GuestHyp != nil && len(vm.GuestHyp.Guests) > 0 {
		return fmt.Errorf("hyper: %s still hosts %d nested VMs; destroy them first", vm.Name, len(vm.GuestHyp.Guests))
	}
	for len(vm.Devices) > 0 {
		if err := vm.DetachDevice(vm.Devices[0]); err != nil {
			return err
		}
	}
	vm.EPT.Clear()
	vm.GuestHyp = nil
	owner := vm.Owner
	for i, g := range owner.Guests {
		if g == vm {
			owner.Guests = append(owner.Guests[:i], owner.Guests[i+1:]...)
			break
		}
	}
	for _, v := range vm.VCPUs {
		v.Idle = true // never schedulable again
	}
	owner.Machine.TopoGen++
	return nil
}

// Repin moves a vCPU (and transitively every vCPU nested on it) to a
// different CPU of the level below, updating the posted-interrupt
// descriptors so notifications land on the right physical CPU. For an L1
// vCPU the target is a physical CPU; for deeper vCPUs it is a parent vCPU
// index.
func (v *VCPU) Repin(target int) error {
	if v.Parent == nil {
		if target < 0 || target >= len(v.VM.Owner.Machine.CPUs) {
			return fmt.Errorf("hyper: repin %s to missing physical CPU %d", v.Path(), target)
		}
		v.setPhysCPU(target)
		return nil
	}
	parentVM := v.VM.Owner.HostVM
	if target < 0 || target >= len(parentVM.VCPUs) {
		return fmt.Errorf("hyper: repin %s to missing parent vCPU %d", v.Path(), target)
	}
	v.Parent = parentVM.VCPUs[target]
	v.setPhysCPU(v.Parent.PhysCPU)
	v.VM.Owner.Machine.TopoGen++
	return nil
}

// setPhysCPU updates the pin and PI descriptor for v and every descendant
// vCPU scheduled on it.
func (v *VCPU) setPhysCPU(cpu int) {
	v.PhysCPU = cpu
	v.PID.SetNDst(cpu)
	if v.VM.GuestHyp == nil {
		return
	}
	for _, g := range v.VM.GuestHyp.Guests {
		for _, child := range g.VCPUs {
			if child.Parent == v {
				child.setPhysCPU(cpu)
			}
		}
	}
}

// ResidentPages reports how many guest frames the VM has faulted in, the
// quantity a teardown releases.
func (vm *VM) ResidentPages() int { return vm.EPT.Mapped() }

// Base returns the first frame of the VM's carve in its owner's memory —
// exported for tests that verify allocator behavior.
func (vm *VM) Base() mem.PFN { return vm.parentBase }
