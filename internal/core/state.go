package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/apic"
	"repro/internal/hyper"
	"repro/internal/vmx"
)

// VMState is the DVH virtual-hardware state of a nested VM that must travel
// with it in a migration (paper Section 3.6): per-vCPU virtual timer values
// and vectors, the TSC offsets, the DVH enable bits, and whether a VCIMT
// must be rebuilt at the destination. Virtual IPIs and virtual idle are
// stateless beyond their enable bits, exactly as the paper observes.
type VMState struct {
	VCPUs []VCPUState `json:"vcpus"`
	// HasVCIMT records that virtual IPIs were active so the destination's
	// guest hypervisor republishes a mapping table.
	HasVCIMT bool `json:"has_vcimt"`
}

// VCPUState is one vCPU's saved virtual-hardware state.
type VCPUState struct {
	// TimerDeadline is the armed TSC deadline (0 = disarmed). The paper:
	// "the guest hypervisor needs to save the timer value ... This simply
	// involves getting the timer value from the virtual hardware."
	TimerDeadline uint64 `json:"timer_deadline"`
	// TimerVector is the LVT timer vector the nested VM programmed.
	TimerVector uint8 `json:"timer_vector"`
	// TSCOffset is the offset the guest hypervisor programmed, "already
	// saved as part of the VM state stored in VMCS".
	TSCOffset int64 `json:"tsc_offset"`
	// Proc3Controls are the DVH enable bits.
	Proc3Controls uint64 `json:"proc3_controls"`
	// HLTExiting preserves the virtual-idle configuration.
	HLTExiting bool `json:"hlt_exiting"`
}

// SaveVMState serializes the nested VM's DVH virtual-hardware state.
func (d *DVH) SaveVMState(vm *hyper.VM) ([]byte, error) {
	if vm.Level < 2 {
		return nil, fmt.Errorf("dvh: SaveVMState on %s: only nested VMs carry DVH state", vm.Name)
	}
	st := VMState{}
	for _, v := range vm.VCPUs {
		st.VCPUs = append(st.VCPUs, VCPUState{
			TimerDeadline: v.LAPIC.TSCDeadline(),
			TimerVector:   uint8(v.LAPIC.TimerVector()),
			TSCOffset:     v.VMCS.TSCOffset(),
			Proc3Controls: v.VMCS.Read(vmx.FieldProcBasedControls3),
			HLTExiting:    v.VMCS.ControlSet(vmx.FieldProcBasedControls, vmx.ProcHLTExiting),
		})
	}
	_, st.HasVCIMT = d.vcimts[vm]
	blob, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("dvh: serializing state of %s: %w", vm.Name, err)
	}
	return blob, nil
}

// RestoreVMState applies saved virtual-hardware state to a destination VM:
// timers are re-armed (or disarmed) on the destination host's virtual
// timers, control bits reinstated, and the VCIMT rebuilt by the
// destination's guest hypervisor.
func (d *DVH) RestoreVMState(vm *hyper.VM, blob []byte) error {
	var st VMState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("dvh: corrupt VM state blob: %w", err)
	}
	if len(st.VCPUs) != len(vm.VCPUs) {
		return fmt.Errorf("dvh: state has %d vCPUs, destination %s has %d", len(st.VCPUs), vm.Name, len(vm.VCPUs))
	}
	for i, vs := range st.VCPUs {
		v := vm.VCPUs[i]
		v.LAPIC.SetTimerVector(apic.Vector(vs.TimerVector))
		v.VMCS.SetTSCOffset(vs.TSCOffset)
		v.VMCS.Write(vmx.FieldProcBasedControls3, vs.Proc3Controls)
		if vs.HLTExiting {
			v.VMCS.SetControl(vmx.FieldProcBasedControls, vmx.ProcHLTExiting)
		} else {
			v.VMCS.ClearControl(vmx.FieldProcBasedControls, vmx.ProcHLTExiting)
		}
		// Written even when zero: restoring a vCPU with no timer pending
		// disarms whatever the destination had armed, so the engine holds
		// exactly the restored LAPIC deadlines.
		d.World.ArmVirtualTimer(v, vs.TimerDeadline)
	}
	if st.HasVCIMT {
		if _, ok := d.vcimts[vm]; !ok {
			if _, err := d.buildVCIMT(vm); err != nil {
				return fmt.Errorf("dvh: rebuilding VCIMT at destination: %w", err)
			}
		}
	}
	return nil
}
