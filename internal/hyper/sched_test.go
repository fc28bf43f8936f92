package hyper

import (
	"testing"

	"repro/internal/trace"
)

// twoGuestStack builds an L1 hypervisor managing two nested VMs whose vCPUs
// share pins — the multi-tenant case the virtual-idle policy is about.
func twoGuestStack(t *testing.T) (*World, *Hypervisor, *VM, *VM) {
	t.Helper()
	w, vms := testStack(t, 2)
	gh := vms[0].GuestHyp
	second, err := gh.CreateVM(VMConfig{Name: "L2-vm-b", VCPUs: 4, MemBytes: 2 << 30})
	if err != nil {
		t.Fatal(err)
	}
	return w, gh, vms[1], second
}

func TestSchedulerRoundRobinFair(t *testing.T) {
	_, gh, a, b := twoGuestStack(t)
	s := gh.EnsureScheduler()
	if gh.EnsureScheduler() != s {
		t.Fatal("EnsureScheduler not idempotent")
	}
	// Two runnable vCPUs share CPU 0 (a.VCPUs[0] and b.VCPUs[0]); repeated
	// picks must alternate.
	counts := map[*VCPU]int{}
	for i := 0; i < 10; i++ {
		v := s.PickNext(0, nil)
		if v == nil {
			t.Fatal("no candidate")
		}
		counts[v]++
	}
	if counts[a.VCPUs[0]] != 5 || counts[b.VCPUs[0]] != 5 {
		t.Fatalf("round robin unfair: %d vs %d", counts[a.VCPUs[0]], counts[b.VCPUs[0]])
	}
}

func TestSchedulerSkipsIdleAndExcept(t *testing.T) {
	_, gh, a, b := twoGuestStack(t)
	s := gh.EnsureScheduler()
	b.VCPUs[0].Idle = true
	for i := 0; i < 4; i++ {
		if v := s.PickNext(0, nil); v != a.VCPUs[0] {
			t.Fatalf("picked %v, want the only runnable vCPU", v)
		}
	}
	if v := s.PickNext(0, a.VCPUs[0]); v != nil {
		t.Fatalf("picked %v with everything excluded or idle", v)
	}
	if s.Runnable(0) != 1 {
		t.Fatalf("Runnable = %d", s.Runnable(0))
	}
	if s.Runnable(99) != 0 {
		t.Fatal("phantom CPU has runnable vCPUs")
	}
}

func TestHLTSwitchesToSiblingNestedVM(t *testing.T) {
	w, gh, a, b := twoGuestStack(t)
	stats := w.Host.Machine.Stats
	// a's vCPU 0 halts; the guest hypervisor owns the exit (two nested VMs:
	// virtual idle would not be enabled here) and must switch to b's vCPU 0.
	cost := exec(t, w, a.VCPUs[0], Halt())
	if !a.VCPUs[0].Idle {
		t.Fatal("vCPU not idle")
	}
	if stats.Count(trace.CounterSchedSwitches) != 1 {
		t.Fatalf("sched.switches = %d, want 1", stats.Count(trace.CounterSchedSwitches))
	}
	if gh.EnsureScheduler().Switches != 1 {
		t.Fatal("per-scheduler switch count wrong")
	}
	// The incoming vCPU's VMCS is now current; the outgoing one is cleared.
	if !b.VCPUs[0].VMCS.Current() {
		t.Fatal("incoming VMCS not loaded")
	}
	if a.VCPUs[0].VMCS.Current() {
		t.Fatal("outgoing VMCS still current")
	}
	// The switch rides on the forwarded HLT, so the total stays in the
	// forwarded-exit magnitude.
	if cost < 30_000 {
		t.Fatalf("HLT+switch = %v cycles; expected forwarded magnitude", cost)
	}
}

func TestHLTWithNoSiblingDoesNotSwitch(t *testing.T) {
	w, vms := testStack(t, 2)
	exec(t, w, vms[1].VCPUs[0], Halt())
	if w.Host.Machine.Stats.Count(trace.CounterSchedSwitches) != 0 {
		t.Fatal("switch performed with nothing to switch to")
	}
}

func TestGuestSwitchRejectsCrossHypervisor(t *testing.T) {
	w, vms := testStack(t, 2)
	stack, err := w.stack(vms[1].VCPUs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.guestSwitch(stack, 1, vms[1].VCPUs[0], vms[0].VCPUs[0]); err == nil {
		t.Fatal("cross-hypervisor switch accepted")
	}
}
