package vmx

import (
	"testing"
	"testing/quick"
)

func mkPair() (*VMCS, *VMCS) {
	vmcs01 := NewVMCS()
	vmcs01.Write(FieldHostRIP, 0xaaaa)
	vmcs01.Write(FieldHostCR3, 0xbbb000)
	vmcs01.SetControl(FieldPinBasedControls, PinExternalInterruptExiting)
	vmcs01.SetControl(FieldProcBasedControls, ProcHLTExiting|ProcActivateSecondary)
	vmcs01.SetControl(FieldProcBasedControls2, Proc2EnableEPT|Proc2APICRegisterVirt)
	vmcs01.SetTSCOffset(-1000)

	vmcs12 := NewVMCS()
	vmcs12.Write(FieldGuestRIP, 0x1111)
	vmcs12.Write(FieldGuestCR3, 0x222000)
	vmcs12.Write(FieldHostRIP, 0xdead) // the guest hypervisor's handler, NOT the hardware's
	vmcs12.SetControl(FieldProcBasedControls, ProcUseTSCOffsetting)
	vmcs12.SetControl(FieldProcBasedControls2, Proc2APICRegisterVirt|Proc2VirtualIntrDelivery)
	vmcs12.SetControl(FieldProcBasedControls3, Proc3VirtualTimerEnable)
	vmcs12.Write(FieldVCIMTAR, 0x77000)
	vmcs12.SetTSCOffset(-500)
	return vmcs01, vmcs12
}

func TestMergeGuestAndHostState(t *testing.T) {
	vmcs01, vmcs12 := mkPair()
	m := Merge(vmcs01, vmcs12)
	if m.Read(FieldGuestRIP) != 0x1111 || m.Read(FieldGuestCR3) != 0x222000 {
		t.Fatal("guest state must come from vmcs12")
	}
	if m.Read(FieldHostRIP) != 0xaaaa {
		t.Fatal("host state must come from vmcs01: exits land in the real host")
	}
	if !m.Current() {
		t.Fatal("merged VMCS should be loaded")
	}
}

func TestMergeTrapControlsOR(t *testing.T) {
	vmcs01, vmcs12 := mkPair()
	m := Merge(vmcs01, vmcs12)
	if !m.ControlSet(FieldProcBasedControls, ProcHLTExiting) {
		t.Fatal("host's HLT exiting lost")
	}
	if !m.ControlSet(FieldProcBasedControls, ProcUseTSCOffsetting) {
		t.Fatal("guest hypervisor's TSC offsetting lost")
	}
	if !m.ControlSet(FieldPinBasedControls, PinExternalInterruptExiting) {
		t.Fatal("pin controls lost")
	}
}

func TestMergeSecondaryControls(t *testing.T) {
	vmcs01, vmcs12 := mkPair()
	m := Merge(vmcs01, vmcs12)
	if !m.ControlSet(FieldProcBasedControls2, Proc2EnableEPT) {
		t.Fatal("host-implemented EPT lost")
	}
	if !m.ControlSet(FieldProcBasedControls2, Proc2APICRegisterVirt) {
		t.Fatal("APICv agreed by both levels lost")
	}
	// vmcs12 wants virtual interrupt delivery but vmcs01 does not provide
	// it: the merged structure cannot enable it.
	if m.ControlSet(FieldProcBasedControls2, Proc2VirtualIntrDelivery) {
		t.Fatal("feature the host does not provide leaked into vmcs02")
	}
}

func TestMergeDVHAndOffsets(t *testing.T) {
	vmcs01, vmcs12 := mkPair()
	m := Merge(vmcs01, vmcs12)
	if !m.ControlSet(FieldProcBasedControls3, Proc3VirtualTimerEnable) {
		t.Fatal("DVH enable bit lost in the merge")
	}
	if m.Read(FieldVCIMTAR) != 0x77000 {
		t.Fatal("VCIMTAR lost")
	}
	if m.TSCOffset() != -1500 {
		t.Fatalf("TSC offset = %d, want the sum -1500", m.TSCOffset())
	}
}

func TestMergeChain(t *testing.T) {
	vmcs01, vmcs12 := mkPair()
	vmcs23 := NewVMCS()
	vmcs23.Write(FieldGuestRIP, 0x3333)
	vmcs23.SetTSCOffset(-200)
	vmcs23.SetControl(FieldProcBasedControls, ProcHLTExiting)

	m := MergeChain(vmcs01, vmcs12, vmcs23)
	if m.Read(FieldGuestRIP) != 0x3333 {
		t.Fatal("innermost guest state must win")
	}
	if m.TSCOffset() != -1700 {
		t.Fatalf("chained offset = %d", m.TSCOffset())
	}
	if m.Read(FieldHostRIP) != 0xaaaa {
		t.Fatal("host state must stay the real host's")
	}
	empty := MergeChain()
	for f := Field(0); f < NumFieldIndexes; f++ {
		if empty.Read(f) != 0 {
			t.Fatalf("empty chain merged to a VMCS with field %#x = %#x", f.Encoding(), empty.Read(f))
		}
	}
	single := MergeChain(vmcs01)
	if single != vmcs01 {
		t.Fatal("single-element chain should be the element itself")
	}
}

func TestMergeTrapORProperty(t *testing.T) {
	// Any trap bit set in either input survives the merge — the soundness
	// property the host's exit routing depends on.
	f := func(a, b uint32) bool {
		v1, v2 := NewVMCS(), NewVMCS()
		v1.Write(FieldProcBasedControls, uint64(a))
		v2.Write(FieldProcBasedControls, uint64(b))
		m := Merge(v1, v2)
		return m.Read(FieldProcBasedControls) == uint64(a)|uint64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
