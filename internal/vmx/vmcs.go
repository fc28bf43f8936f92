package vmx

// Field identifies a VMCS field. Only the fields the simulator actually
// consults are defined, and they are numbered densely from zero so a VMCS
// stores them in a fixed array: a VMREAD or VMWRITE costs an array index,
// not a hash. Encoding returns the field's Intel SDM appendix B encoding
// (width and type packed into the number) for messages and dumps.
type Field uint8

const (
	// Control fields.
	FieldPinBasedControls Field = iota
	FieldProcBasedControls
	FieldProcBasedControls2
	FieldProcBasedControls3 // tertiary controls; DVH bits live here
	FieldExceptionBitmap
	FieldVMExitControls
	FieldVMEntryControls
	FieldVMEntryIntrInfo
	FieldTSCOffset
	FieldEPTPointer
	FieldVirtualAPICAddr
	FieldAPICAccessAddr
	FieldPostedIntrDesc
	FieldVMCSLinkPointer
	// FieldVCIMTAR is the paper's new virtual-CPU interrupt mapping table
	// address register (Section 3.3), modeled as a VMCS control field so
	// intervening hypervisors see it as ordinary virtual hardware state.
	FieldVCIMTAR

	// Read-only exit information fields.
	FieldVMExitReason
	FieldExitQualification
	FieldGuestLinearAddr
	FieldGuestPhysicalAddr
	FieldVMExitIntrInfo
	FieldVMInstructionInfo

	// Guest-state fields (a representative subset; the simulator moves these
	// on every emulated world switch).
	FieldGuestRIP
	FieldGuestRSP
	FieldGuestRFLAGS
	FieldGuestCR0
	FieldGuestCR3
	FieldGuestCR4
	FieldGuestInterruptibility
	FieldGuestActivityState

	// Host-state fields.
	FieldHostRIP
	FieldHostRSP
	FieldHostCR3

	// NumFieldIndexes sizes a VMCS's field array; every Field is below it.
	NumFieldIndexes
)

// VMCS.written records written fields as bits of one word.
var _ [64 - NumFieldIndexes]struct{}

// fieldEncodings maps each field to its SDM encoding.
var fieldEncodings = [NumFieldIndexes]uint32{
	FieldPinBasedControls:   0x4000,
	FieldProcBasedControls:  0x4002,
	FieldProcBasedControls2: 0x401e,
	FieldProcBasedControls3: 0x2034,
	FieldExceptionBitmap:    0x4004,
	FieldVMExitControls:     0x400c,
	FieldVMEntryControls:    0x4012,
	FieldVMEntryIntrInfo:    0x4016,
	FieldTSCOffset:          0x2010,
	FieldEPTPointer:         0x201a,
	FieldVirtualAPICAddr:    0x2012,
	FieldAPICAccessAddr:     0x2014,
	FieldPostedIntrDesc:     0x2016,
	FieldVMCSLinkPointer:    0x2800,
	FieldVCIMTAR:            0x2036,

	FieldVMExitReason:      0x4402,
	FieldExitQualification: 0x6400,
	FieldGuestLinearAddr:   0x640a,
	FieldGuestPhysicalAddr: 0x2400,
	FieldVMExitIntrInfo:    0x4404,
	FieldVMInstructionInfo: 0x440e,

	FieldGuestRIP:              0x681e,
	FieldGuestRSP:              0x681c,
	FieldGuestRFLAGS:           0x6820,
	FieldGuestCR0:              0x6800,
	FieldGuestCR3:              0x6802,
	FieldGuestCR4:              0x6804,
	FieldGuestInterruptibility: 0x4824,
	FieldGuestActivityState:    0x4826,

	FieldHostRIP: 0x6c16,
	FieldHostRSP: 0x6c14,
	FieldHostCR3: 0x6c02,
}

// Encoding returns the field's Intel SDM encoding.
func (f Field) Encoding() uint32 { return fieldEncodings[f] }

// Pin-based VM-execution control bits.
const (
	PinExternalInterruptExiting uint64 = 1 << 0
	PinNMIExiting               uint64 = 1 << 3
	PinVMXPreemptionTimer       uint64 = 1 << 6
	PinProcessPostedInterrupts  uint64 = 1 << 7
)

// Primary processor-based VM-execution control bits.
const (
	ProcHLTExiting        uint64 = 1 << 7
	ProcUseTSCOffsetting  uint64 = 1 << 3
	ProcMWAITExiting      uint64 = 1 << 10
	ProcUseIOBitmaps      uint64 = 1 << 25
	ProcUseMSRBitmaps     uint64 = 1 << 28
	ProcActivateSecondary uint64 = 1 << 31
)

// Secondary processor-based VM-execution control bits.
const (
	Proc2VirtualizeAPICAccesses uint64 = 1 << 0
	Proc2EnableEPT              uint64 = 1 << 1
	Proc2APICRegisterVirt       uint64 = 1 << 8
	Proc2VirtualIntrDelivery    uint64 = 1 << 9
	Proc2VMCSShadowing          uint64 = 1 << 14
	Proc2ActivateTertiary       uint64 = 1 << 17
)

// Tertiary ("DVH") processor-based VM-execution control bits. These are the
// paper's additions: a guest hypervisor sets them in the VMCS it maintains
// for its nested VM, and the host hypervisor — which can read that VMCS —
// honours them when the nested VM's accesses trap to it.
const (
	Proc3VirtualTimerEnable uint64 = 1 << 0 // Section 3.2, virtual LAPIC timer
	Proc3VirtualIPIEnable   uint64 = 1 << 1 // Section 3.3, virtual ICR + VCIMT
)

// ActivityState values for FieldGuestActivityState.
const (
	ActivityActive uint64 = 0
	ActivityHLT    uint64 = 1
)

// VMCS is a virtual-machine control structure: the per-vCPU state block a
// hypervisor uses to configure and run one virtual CPU. A hypervisor at level
// k maintains one VMCS per vCPU of each VM it runs; when that hypervisor is
// itself a guest, its VMREAD/VMWRITE accesses to this structure trap to the
// level below (unless a shadow VMCS elides them).
type VMCS struct {
	fields [NumFieldIndexes]uint64
	// written has bit f set once field f has been written: CopyGuestState
	// copies only written fields, so a guest field the source never set
	// keeps the destination's value.
	written  uint64
	launched bool
	current  bool // loaded via VMPTRLD
	// shadow, when non-nil, marks this VMCS as having hardware shadow-VMCS
	// backing: VMREAD/VMWRITE by the immediate guest hypervisor hit the shadow
	// without exiting.
	shadow *VMCS
}

// NewVMCS returns an empty, unlaunched VMCS.
func NewVMCS() *VMCS { return &VMCS{} }

// Read returns the value of a field; unwritten fields read as zero,
// matching a VMCLEARed structure.
func (v *VMCS) Read(f Field) uint64 { return v.fields[f] }

// Write stores a field value.
func (v *VMCS) Write(f Field, val uint64) {
	v.fields[f] = val
	v.written |= 1 << f
}

// SetControl ors bits into a control field.
func (v *VMCS) SetControl(f Field, bits uint64) { v.Write(f, v.fields[f]|bits) }

// ClearControl removes bits from a control field.
func (v *VMCS) ClearControl(f Field, bits uint64) { v.Write(f, v.fields[f]&^bits) }

// ControlSet reports whether every given bit is set in a control field.
func (v *VMCS) ControlSet(f Field, bits uint64) bool {
	return v.fields[f]&bits == bits
}

// Launched reports whether the VMCS has been through VMLAUNCH (subsequent
// entries must use VMRESUME).
func (v *VMCS) Launched() bool { return v.launched }

// MarkLaunched records a successful VMLAUNCH.
func (v *VMCS) MarkLaunched() { v.launched = true }

// Clear implements VMCLEAR: the launch state resets and the structure is no
// longer current. Field contents persist, as on hardware (they live in the
// in-memory VMCS region).
func (v *VMCS) Clear() {
	v.launched = false
	v.current = false
}

// Load implements VMPTRLD, making this the current VMCS.
func (v *VMCS) Load() { v.current = true }

// Current reports whether the VMCS is loaded.
func (v *VMCS) Current() bool { return v.current }

// LinkShadow attaches a shadow VMCS so the guest hypervisor's VMREAD/VMWRITE
// accesses are satisfied in hardware. Passing nil detaches it.
func (v *VMCS) LinkShadow(s *VMCS) {
	v.shadow = s
	if s != nil {
		v.Write(FieldVMCSLinkPointer, 1)
	} else {
		v.Write(FieldVMCSLinkPointer, ^uint64(0))
	}
}

// Shadowed reports whether a shadow VMCS backs this structure.
func (v *VMCS) Shadowed() bool { return v.shadow != nil }

// Shadow returns the linked shadow VMCS, or nil.
func (v *VMCS) Shadow() *VMCS { return v.shadow }

// CopyGuestState copies the guest-state fields from src, the work a host
// hypervisor performs when merging a guest hypervisor's VMCS into the one it
// runs the nested VM with ("vmcs02" construction in KVM terms). Only the
// fields src has written are copied: a guest field src never set keeps its
// value in v. It returns the number of fields copied.
func (v *VMCS) CopyGuestState(src *VMCS) int {
	n := 0
	// The guest-state fields are declared as one contiguous run.
	for f := FieldGuestRIP; f <= FieldGuestActivityState; f++ {
		if src.written&(1<<f) != 0 {
			v.Write(f, src.fields[f])
			n++
		}
	}
	return n
}

// RecordExit fills the read-only exit information fields, the step a host
// hypervisor performs when reflecting an exit into a guest hypervisor.
func (v *VMCS) RecordExit(reason ExitReason, qualification, guestPhys uint64) {
	v.Write(FieldVMExitReason, uint64(reason))
	v.Write(FieldExitQualification, qualification)
	v.Write(FieldGuestPhysicalAddr, guestPhys)
}

// ExitReasonField decodes the recorded exit reason.
func (v *VMCS) ExitReasonField() ExitReason {
	return ExitReason(v.fields[FieldVMExitReason])
}

// TSCOffset returns the signed TSC offset control.
func (v *VMCS) TSCOffset() int64 { return int64(v.fields[FieldTSCOffset]) }

// SetTSCOffset stores the signed TSC offset control.
func (v *VMCS) SetTSCOffset(off int64) { v.Write(FieldTSCOffset, uint64(off)) }
