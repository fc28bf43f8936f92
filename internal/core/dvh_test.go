package core

import (
	"strings"
	"testing"

	"repro/internal/apic"
	"repro/internal/hyper"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pci"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

// buildStack assembles a nesting stack of the given depth with DVH enabled
// at the given feature set and the innermost VM configured.
func buildStack(t testing.TB, depth int, f Features) (*DVH, *hyper.World, []*hyper.VM) {
	t.Helper()
	m := machine.MustNew(machine.Config{
		Name: "dvh-test", CPUs: 10, MemoryBytes: 64 << 30, Caps: vmx.HardwareCaps, NICVFs: 4,
	})
	host := hyper.NewHost(m, hyper.KVM{})
	w := hyper.NewWorld(host)
	d, err := Enable(w, f)
	if err != nil {
		t.Fatal(err)
	}
	var vms []*hyper.VM
	h := host
	memBytes := uint64(16 << 30)
	for lvl := 1; lvl <= depth; lvl++ {
		vm, err := h.CreateVM(hyper.VMConfig{Name: names[lvl], VCPUs: 4, MemBytes: memBytes})
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
		if lvl < depth {
			h = vm.InstallHypervisor(hyper.KVM{}, "kvm-"+names[lvl])
			memBytes -= 4 << 30
		}
	}
	if depth >= 2 {
		if err := d.ConfigureVM(vms[depth-1]); err != nil {
			t.Fatal(err)
		}
	}
	return d, w, vms
}

var names = []string{"", "L1-vm", "L2-vm", "L3-vm", "L4-vm"}

func exec(t testing.TB, w *hyper.World, v *hyper.VCPU, op hyper.Op) sim.Cycles {
	t.Helper()
	c, err := w.Execute(v, op)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func within(t *testing.T, name string, got, lo, hi sim.Cycles) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %v cycles, want within [%v, %v]", name, got, lo, hi)
	} else {
		t.Logf("%s = %v cycles (band [%v, %v])", name, got, lo, hi)
	}
}

func TestDVHCapabilityAdvertised(t *testing.T) {
	d, w, vms := buildStack(t, 2, FeaturesAll)
	if !w.Host.Caps.Has(vmx.CapVirtualTimer | vmx.CapVirtualIPI) {
		t.Fatal("host does not advertise DVH virtual hardware")
	}
	// The L1 VM (hence its guest hypervisor) must see the capability too.
	if !vms[0].Caps.Has(vmx.CapVirtualTimer) {
		t.Fatal("guest hypervisor cannot discover virtual timers")
	}
	_ = d
}

func TestVirtualTimerTable3(t *testing.T) {
	// Paper Table 3: ProgramTimer nested+DVH = 3,247; L3+DVH = 3,304.
	// The defining property: DVH keeps the cost at non-nested magnitude
	// (2,005) regardless of depth, versus ~43k/1M without DVH.
	_, w2, vms2 := buildStack(t, 2, FeaturesAll)
	l2 := exec(t, w2, vms2[1].VCPUs[0], hyper.ProgramTimer(50_000))
	within(t, "L2 ProgramTimer+DVH", l2, 2_900, 3_600)

	_, w3, vms3 := buildStack(t, 3, FeaturesAll)
	l3 := exec(t, w3, vms3[2].VCPUs[0], hyper.ProgramTimer(50_000))
	within(t, "L3 ProgramTimer+DVH", l3, 3_000, 3_800)
	if l3 <= l2 {
		t.Errorf("L3 (%v) should cost slightly more than L2 (%v): one more TSC offset to combine", l3, l2)
	}
	if stats := w2.Host.Machine.Stats; stats.GuestHypervisorExits() != 0 {
		t.Errorf("virtual timer still produced %d guest hypervisor exits", stats.GuestHypervisorExits())
	}
}

func TestVirtualTimerOffsetsCombine(t *testing.T) {
	_, w, vms := buildStack(t, 2, FeaturesAll)
	v := vms[1].VCPUs[0]
	// The L1 hypervisor programmed a TSC offset for the nested VM, and the
	// host programmed one for the L1 VM: both must apply.
	v.VMCS.SetTSCOffset(-1000)
	v.Parent.VMCS.SetTSCOffset(-2000)
	exec(t, w, v, hyper.ProgramTimer(10_000))
	if got := v.LAPIC.TSCDeadline(); got != 7_000 {
		t.Fatalf("combined deadline = %d, want 7000 (offsets applied)", got)
	}
}

func TestVirtualTimerFiresAndWakes(t *testing.T) {
	_, w, vms := buildStack(t, 2, FeaturesAll)
	v := vms[1].VCPUs[0]
	eng := w.Host.Machine.Engine
	exec(t, w, v, hyper.ProgramTimer(uint64(eng.Now())+4000))
	exec(t, w, v, hyper.Halt())
	if !v.Idle {
		t.Fatal("vCPU not idle")
	}
	eng.RunUntil(eng.Now() + 8000)
	if v.Idle {
		t.Fatal("virtual timer did not wake the nested vCPU")
	}
	if !v.LAPIC.Pending(apic.VectorTimer) {
		t.Fatal("timer interrupt not delivered")
	}
}

func TestVirtualTimerRearmKeepsLastDeadline(t *testing.T) {
	// The guest re-arms to a later deadline before the first one expires.
	// The timer fires at the last deadline written, never at an overwritten
	// one (SDM: IA32_TSC_DEADLINE), so nothing is pending at now+8000 and the
	// later deadline is still armed.
	_, w, vms := buildStack(t, 2, FeaturesAll)
	v := vms[1].VCPUs[0]
	eng := w.Host.Machine.Engine
	now := uint64(eng.Now())
	exec(t, w, v, hyper.ProgramTimer(now+4000))
	exec(t, w, v, hyper.ProgramTimer(now+1_000_000))
	eng.RunUntil(sim.Time(now + 8000))
	if v.LAPIC.Pending(apic.VectorTimer) {
		t.Fatal("overwritten deadline fired: timer vector pending at now+8000")
	}
	if got := v.LAPIC.TSCDeadline(); got != now+1_000_000 {
		t.Fatalf("deadline = %d after the stale expiry point, want %d", got, now+1_000_000)
	}
	if eng.Armed() != 1 {
		t.Fatalf("%d timers armed, want the one re-armed timer", eng.Armed())
	}
	eng.RunUntil(sim.Time(now + 1_000_000))
	if !v.LAPIC.Pending(apic.VectorTimer) || v.LAPIC.TSCDeadline() != 0 {
		t.Fatal("re-armed timer did not fire at its deadline")
	}
}

func TestVirtualIPITable3(t *testing.T) {
	// Paper Table 3: SendIPI nested+DVH = 5,116; L3+DVH = 5,228.
	_, w2, vms2 := buildStack(t, 2, FeaturesAll)
	dest := vms2[1].VCPUs[1]
	exec(t, w2, dest, hyper.Halt()) // destination idles (at the host, thanks to virtual idle)
	stats := w2.Host.Machine.Stats
	stats.Reset()
	l2 := exec(t, w2, vms2[1].VCPUs[0], hyper.SendIPI(1, apic.VectorReschedule))
	within(t, "L2 SendIPI+DVH", l2, 4_600, 5_700)
	if dest.Idle {
		t.Fatal("destination not woken")
	}
	if !dest.LAPIC.Pending(apic.VectorReschedule) {
		t.Fatal("IPI not delivered")
	}
	if stats.GuestHypervisorExits() != 0 {
		t.Errorf("virtual IPI produced %d guest hypervisor exits", stats.GuestHypervisorExits())
	}

	_, w3, vms3 := buildStack(t, 3, FeaturesAll)
	dest3 := vms3[2].VCPUs[1]
	exec(t, w3, dest3, hyper.Halt())
	l3 := exec(t, w3, vms3[2].VCPUs[0], hyper.SendIPI(1, apic.VectorReschedule))
	within(t, "L3 SendIPI+DVH", l3, 4_700, 5_900)
	if l3 <= l2 {
		t.Errorf("L3 send (%v) should cost slightly more than L2 (%v)", l3, l2)
	}
}

func TestVCIMTIsRealGuestMemory(t *testing.T) {
	d, _, vms := buildStack(t, 2, FeaturesAll)
	table, ok := d.Table(vms[1])
	if !ok {
		t.Fatal("no VCIMT registered")
	}
	// The table entries live in the L1 VM's memory; corrupting them through
	// ordinary guest memory writes must break lookups.
	dest, err := table.Lookup(2)
	if err != nil {
		t.Fatal(err)
	}
	if dest != vms[1].VCPUs[2] {
		t.Fatal("VCIMT resolved the wrong vCPU")
	}
	if err := vms[0].Memory().WriteU64(table.Base+16, 999); err != nil {
		t.Fatal(err)
	}
	if _, err := table.Lookup(2); err == nil {
		t.Fatal("lookup through corrupted VCIMT entry should fail")
	}
	// VCIMTAR must be published in the nested vCPUs' execution controls.
	if vms[1].VCPUs[0].VMCS.Read(vmx.FieldVCIMTAR) != uint64(table.Base) {
		t.Fatal("VCIMTAR not programmed")
	}
}

func TestVCIMTRetarget(t *testing.T) {
	d, w, vms := buildStack(t, 2, FeaturesAll)
	table, _ := d.Table(vms[1])
	if err := table.Retarget(1, vms[1].VCPUs[3]); err != nil {
		t.Fatal(err)
	}
	exec(t, w, vms[1].VCPUs[0], hyper.SendIPI(1, apic.VectorCallFunc))
	if !vms[1].VCPUs[3].LAPIC.Pending(apic.VectorCallFunc) {
		t.Fatal("retargeted IPI did not reach the new vCPU")
	}
}

func TestVirtualIdleTable3(t *testing.T) {
	// With virtual idle, a nested HLT is host-owned: cost collapses from a
	// forwarded exit (~40k) to host-idle magnitude.
	_, w, vms := buildStack(t, 2, FeaturesAll)
	v := vms[1].VCPUs[0]
	got := exec(t, w, v, hyper.Halt())
	if got > 4000 {
		t.Errorf("virtual-idle HLT = %v cycles, want host-idle magnitude", got)
	}
	if !v.Idle {
		t.Fatal("vCPU not idle")
	}
	if w.Host.Machine.Stats.GuestHypervisorExits() != 0 {
		t.Error("virtual idle still exited to a guest hypervisor")
	}
}

func TestVirtualIdlePolicyMultipleNestedVMs(t *testing.T) {
	// Section 3.4: the guest hypervisor only yields HLT interposition when
	// it has no other nested VM to schedule.
	d, _, vms := buildStack(t, 2, FeaturesAll)
	gh := vms[0].GuestHyp
	second, err := gh.CreateVM(hyper.VMConfig{Name: "L2-vm-b", VCPUs: 4, MemBytes: 2 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ConfigureVM(vms[1]); err != nil {
		t.Fatal(err)
	}
	if err := d.ConfigureVM(second); err != nil {
		t.Fatal(err)
	}
	for _, v := range vms[1].VCPUs {
		if !v.VMCS.ControlSet(vmx.FieldProcBasedControls, vmx.ProcHLTExiting) {
			t.Fatal("guest hypervisor with two nested VMs must keep trapping HLT")
		}
	}
}

func TestVirtualPassthroughTable3(t *testing.T) {
	// Paper Table 3: DevNotify nested+DVH = 13,815 (vs 4,984 at one level):
	// the premium is the host's software EPT walk validating the fault.
	d, w, vms := buildStack(t, 2, FeaturesAll)
	dev, err := d.AttachVirtualPassthrough(vms[1], hyper.DevNet, "vp-net0")
	if err != nil {
		t.Fatal(err)
	}
	stats := w.Host.Machine.Stats
	stats.Reset()
	got := exec(t, w, vms[1].VCPUs[0], hyper.DevNotify(dev.Doorbell))
	within(t, "L2 DevNotify+DVH-VP", got, 12_500, 15_500)
	if stats.GuestHypervisorExits() != 0 {
		t.Errorf("VP kick produced %d guest hypervisor exits", stats.GuestHypervisorExits())
	}
	if stats.Count(trace.CounterDVHVPKicks) != 1 {
		t.Error("VP kick not counted")
	}
}

func TestVirtualPassthroughL3(t *testing.T) {
	// Paper Table 3: DevNotify L3+DVH = 15,150 — still host-handled, one
	// more vIOMMU level in the chain but no guest hypervisor on the path.
	d, w, vms := buildStack(t, 3, FeaturesAll)
	dev, err := d.AttachVirtualPassthrough(vms[2], hyper.DevNet, "vp-net0")
	if err != nil {
		t.Fatal(err)
	}
	got := exec(t, w, vms[2].VCPUs[0], hyper.DevNotify(dev.Doorbell))
	within(t, "L3 DevNotify+DVH-VP", got, 12_500, 17_000)
	if w.Host.Machine.Stats.GuestHypervisorExits() != 0 {
		t.Error("L3 VP kick involved a guest hypervisor")
	}
}

func TestVPDataPathMovesBytesThroughShadow(t *testing.T) {
	// End to end: the device DMAs a payload that straddles a page boundary
	// to a nested-VM address; the bytes land in the L1 frames the combined
	// shadow translation resolved, and the host logs both pages.
	d, _, vms := buildStack(t, 2, FeaturesAll)
	l1, l2 := vms[0], vms[1]
	dev, err := d.AttachVirtualPassthrough(l2, hyper.DevNet, "vp-net0")
	if err != nil {
		t.Fatal(err)
	}
	vp, _ := d.VPStateOf(dev)

	addr := l2.MustAllocPages(2) + mem.PageSize - 16
	payload := []byte("nested frame via DVH virtual-passthrough")
	if err := dev.DMAView.Write(addr, payload); err != nil {
		t.Fatal(err)
	}
	if vp.Shadow.Mapped() == 0 {
		t.Fatal("shadow table empty after DMA")
	}
	for off := 0; off < len(payload); {
		a := addr + mem.Addr(off)
		n := min(int(mem.PageSize-(a&(mem.PageSize-1))), len(payload)-off)
		l1f, err := vp.ensureShadow(pageOf(a))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, n)
		if err := l1.Memory().Read(l1f.Base()+(a&(mem.PageSize-1)), got); err != nil {
			t.Fatal(err)
		}
		if string(got) != string(payload[off:off+n]) {
			t.Fatalf("L1 frame %d holds %q, want %q", l1f, got, payload[off:off+n])
		}
		if !vp.HostDirty.Test(uint64(pageOf(a))) {
			t.Fatalf("page %d missing from the host DMA dirty log", pageOf(a))
		}
		off += n
	}
}

func TestVPDMAWritesInvisibleToGuestDirtyLog(t *testing.T) {
	// The core migration problem of Section 3.6: device DMA dirties pages
	// the guest hypervisor cannot see. Host-side logging must catch them;
	// the nested VM's own dirty log must not.
	d, _, vms := buildStack(t, 2, FeaturesAll)
	l2 := vms[1]
	dev, err := d.AttachVirtualPassthrough(l2, hyper.DevNet, "vp-net0")
	if err != nil {
		t.Fatal(err)
	}
	vp, _ := d.VPStateOf(dev)
	l2.StartDirtyLog()
	buf := l2.MustAllocPages(1)
	if err := dev.DMAView.Write(buf, []byte("dma payload")); err != nil {
		t.Fatal(err)
	}
	if got := l2.CollectDirty(); len(got) != 0 {
		t.Fatalf("guest-visible dirty log saw DMA pages %v; it must not", got)
	}
	dma := vp.CollectDMADirty()
	if len(dma) != 1 || dma[0] != pageOf(buf) {
		t.Fatalf("host DMA dirty log = %v, want [%d]", dma, pageOf(buf))
	}
	// CPU writes still land in the guest-visible log.
	if err := l2.Memory().Write(buf, []byte("cpu write")); err != nil {
		t.Fatal(err)
	}
	if got := l2.CollectDirty(); len(got) != 1 {
		t.Fatalf("CPU write dirty log = %v", got)
	}
}

func TestVPMigrationCapability(t *testing.T) {
	d, _, vms := buildStack(t, 2, FeaturesAll)
	dev, err := d.AttachVirtualPassthrough(vms[1], hyper.DevNet, "vp-net0")
	if err != nil {
		t.Fatal(err)
	}
	vp, _ := d.VPStateOf(dev)
	if _, ok := dev.Fn.Config.FindCapability(pci.CapMigration); !ok {
		t.Fatal("VP device does not advertise the migration capability")
	}
	// Guest hypervisor flow: enable dirty logging, capture state.
	if err := vp.MigCap.GuestWriteCtrl(pci.MigCtrlDirtyLog | pci.MigCtrlCapture); err != nil {
		t.Fatal(err)
	}
	if !vp.DirtyLogging {
		t.Fatal("dirty logging not propagated to host")
	}
	blob := vp.MigCap.CapturedState()
	if len(blob) == 0 {
		t.Fatal("no device state captured")
	}
	dev.TxFrames = 99
	if err := RestoreVPDeviceState(dev, blob); err != nil {
		t.Fatal(err)
	}
	if dev.TxFrames != 0 {
		t.Fatal("restore did not reinstate captured state")
	}
	if err := RestoreVPDeviceState(dev, []byte("junk")); err == nil {
		t.Fatal("corrupt blob accepted")
	}
}

func TestVPRejectsNonNestedAndDisabled(t *testing.T) {
	d, _, vms := buildStack(t, 2, FeaturesAll)
	if _, err := d.AttachVirtualPassthrough(vms[0], hyper.DevNet, "bad"); err == nil {
		t.Fatal("VP to a level-1 VM should be rejected")
	}
	d2, _, vms2 := buildStack(t, 2, FeatureVirtualTimers)
	if _, err := d2.AttachVirtualPassthrough(vms2[1], hyper.DevNet, "bad"); err == nil {
		t.Fatal("VP without the feature should be rejected")
	}
}

func TestRecursiveEnableBitsANDCombine(t *testing.T) {
	// Section 3.5: if any intermediate hypervisor disables a DVH feature,
	// the nested VM must fall back to forwarded emulation.
	d, w, vms := buildStack(t, 3, FeaturesAll)
	fast := exec(t, w, vms[2].VCPUs[0], hyper.ProgramTimer(10_000))
	d.DisableAt(vms[1].GuestHyp, FeatureVirtualTimers)
	slow := exec(t, w, vms[2].VCPUs[0], hyper.ProgramTimer(10_000))
	if slow < 20*fast {
		t.Errorf("timer with L2 hypervisor disabled = %v, DVH = %v; disable must force forwarding", slow, fast)
	}
	// Virtual IPIs were not disabled and must keep working.
	ipi := exec(t, w, vms[2].VCPUs[0], hyper.SendIPI(1, apic.VectorReschedule))
	if ipi > 8000 {
		t.Errorf("unrelated virtual IPI regressed to %v cycles", ipi)
	}
}

func TestHypercallUnaffectedByDVH(t *testing.T) {
	// Paper Table 3: Hypercall nested+DVH = 38,743, slightly *worse* than
	// without DVH (37,733): the host checks and must still forward.
	_, w, vms := buildStack(t, 2, FeaturesAll)
	got := exec(t, w, vms[1].VCPUs[0], hyper.Hypercall())
	within(t, "L2 Hypercall+DVH", got, 31_000, 47_000)
	if w.Host.Machine.Stats.TotalHandledAt(1) == 0 {
		t.Fatal("hypercall must still reach the guest hypervisor")
	}
}

func TestStatsReportMentionsDVH(t *testing.T) {
	d, w, vms := buildStack(t, 2, FeaturesAll)
	dev, err := d.AttachVirtualPassthrough(vms[1], hyper.DevNet, "vp-net0")
	if err != nil {
		t.Fatal(err)
	}
	exec(t, w, vms[1].VCPUs[0], hyper.DevNotify(dev.Doorbell))
	exec(t, w, vms[1].VCPUs[0], hyper.ProgramTimer(1000))
	out := w.Host.Machine.Stats.String()
	for _, want := range []string{"dvh.vp.kicks", "dvh.vtimer.programs"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats report missing %q:\n%s", want, out)
		}
	}
}
