package hyper

import (
	"testing"

	"repro/internal/apic"
)

func TestDetachDevice(t *testing.T) {
	w, vms := testStack(t, 1)
	dev, err := AttachParavirt(vms[0], DevNet, "net0")
	if err != nil {
		t.Fatal(err)
	}
	if err := vms[0].DetachDevice(dev); err != nil {
		t.Fatal(err)
	}
	if vms[0].FindDeviceByDoorbell(dev.Doorbell) != nil {
		t.Fatal("doorbell still decodes after detach")
	}
	if _, err := w.Execute(vms[0].VCPUs[0], DevNotify(dev.Doorbell)); err == nil {
		t.Fatal("kick to detached device should fail")
	}
	if dev.Fn.Driver() != "" {
		t.Fatal("driver still bound")
	}
	if err := vms[0].DetachDevice(dev); err == nil {
		t.Fatal("double detach accepted")
	}
}

func TestDetachPassthroughReleasesIOMMU(t *testing.T) {
	w, vms := testStack(t, 2)
	vms[0].ProvideVIOMMU(true)
	vfs, err := w.Host.Machine.CreateVFs(1)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := AttachPassthroughNIC(vms[1], vfs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := vms[1].DetachDevice(dev); err != nil {
		t.Fatal(err)
	}
	if vfs[0].Driver() != "" {
		t.Fatal("vfio driver still bound")
	}
	// The VF can be reassigned to another VM.
	if _, err := AttachPassthroughNIC(vms[1], vfs[0]); err != nil {
		t.Fatalf("reassignment failed: %v", err)
	}
}

func TestDestroyVM(t *testing.T) {
	w, vms := testStack(t, 2)
	l1, l2 := vms[0], vms[1]
	if _, err := AttachParavirt(l1, DevNet, "net0"); err != nil {
		t.Fatal(err)
	}
	if _, err := AttachParavirt(l2, DevNet, "net1"); err != nil {
		t.Fatal(err)
	}
	// L1 cannot be destroyed while it hosts L2.
	if err := l1.Destroy(); err == nil {
		t.Fatal("destroy of a VM hosting nested VMs accepted")
	}
	gm := l2.Memory()
	if err := gm.Write(l2.MustAllocPages(1), []byte("data")); err != nil {
		t.Fatal(err)
	}
	if l2.ResidentPages() == 0 {
		t.Fatal("no resident pages before destroy")
	}
	if err := l2.Destroy(); err != nil {
		t.Fatal(err)
	}
	if l2.ResidentPages() != 0 {
		t.Fatal("EPT not cleared")
	}
	if len(l1.GuestHyp.Guests) != 0 {
		t.Fatal("owner still lists the destroyed VM")
	}
	// Now L1 can go too.
	if err := l1.Destroy(); err != nil {
		t.Fatal(err)
	}
	if len(w.Host.Guests) != 0 {
		t.Fatal("host still lists the destroyed L1")
	}
}

func TestRepinVCPU(t *testing.T) {
	_, vms := testStack(t, 2)
	l1v := vms[0].VCPUs[0]
	l2v := vms[1].VCPUs[0] // nested on l1v (identity pin)
	if l2v.Parent != l1v {
		t.Fatal("test assumption: identity pinning")
	}
	if err := l1v.Repin(7); err != nil {
		t.Fatal(err)
	}
	if l1v.PhysCPU != 7 || l1v.PID.NDst() != 7 {
		t.Fatal("L1 pin/PI descriptor not updated")
	}
	// The nested vCPU rides along.
	if l2v.PhysCPU != 7 || l2v.PID.NDst() != 7 {
		t.Fatal("nested vCPU did not follow its parent")
	}
	// Moving the nested vCPU to another parent.
	if err := l2v.Repin(2); err != nil {
		t.Fatal(err)
	}
	if l2v.Parent != vms[0].VCPUs[2] || l2v.PhysCPU != vms[0].VCPUs[2].PhysCPU {
		t.Fatal("nested repin wrong")
	}
	if err := l1v.Repin(999); err == nil {
		t.Fatal("repin to missing CPU accepted")
	}
	if err := l2v.Repin(999); err == nil {
		t.Fatal("repin to missing parent accepted")
	}
}

func TestRepinKeepsIPIsWorking(t *testing.T) {
	w, vms := testStack(t, 1)
	dest := vms[0].VCPUs[1]
	if err := dest.Repin(5); err != nil {
		t.Fatal(err)
	}
	exec(t, w, vms[0].VCPUs[0], SendIPI(1, apic.VectorReschedule))
	if !dest.LAPIC.Pending(apic.VectorReschedule) {
		t.Fatal("IPI lost after repin")
	}
	if dest.PID.NDst() != 5 {
		t.Fatal("PI descriptor points at the old CPU")
	}
}
