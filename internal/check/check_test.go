package check_test

import (
	"testing"

	"repro/internal/apic"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/hyper"
	"repro/internal/sim"
	"repro/internal/workload"
)

// buildChecked assembles a stack with an invariant checker attached.
func buildChecked(t testing.TB, spec experiment.Spec) (*experiment.Stack, *check.Checker) {
	t.Helper()
	st, err := experiment.Build(spec)
	if err != nil {
		t.Fatalf("Build(%+v): %v", spec, err)
	}
	return st, st.AttachChecker()
}

// drive runs every Table 1 microbenchmark plus the given application
// profiles on a stack — the access mix the paper's evaluation exercises.
func drive(t testing.TB, st *experiment.Stack, txns int, profiles ...workload.Profile) {
	t.Helper()
	for _, m := range workload.Micros() {
		if _, err := workload.RunMicro(st.World, st.Target.VCPUs[0], m, st.Net, 16); err != nil {
			t.Fatalf("%+v: micro %v: %v", st.Spec, m, err)
		}
	}
	for _, p := range profiles {
		r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p}
		if _, err := r.Run(txns); err != nil {
			t.Fatalf("%+v: profile %s: %v", st.Spec, p.Name, err)
		}
	}
}

// finish asserts a clean end-of-run sweep, dumping every violation otherwise.
func finish(t testing.TB, spec experiment.Spec, c *check.Checker) {
	t.Helper()
	if err := c.Finish(); err != nil {
		for _, v := range c.Violations() {
			t.Errorf("%+v: %s", spec, v)
		}
		t.Fatalf("%+v: %v", spec, err)
	}
}

// TestZeroViolationsEvaluationConfigs runs the Table 3 and Figure 7–10
// stack configurations under the checker: the full evaluation must complete
// with zero invariant violations.
func TestZeroViolationsEvaluationConfigs(t *testing.T) {
	profiles := workload.Profiles()
	for _, spec := range []experiment.Spec{
		// Table 3 columns.
		{Depth: 1, IO: experiment.IOParavirt},
		{Depth: 2, IO: experiment.IOParavirt},
		{Depth: 2, IO: experiment.IODVH},
		{Depth: 3, IO: experiment.IOParavirt},
		{Depth: 3, IO: experiment.IODVH},
		// Figure 7/9 bars not already covered.
		{Depth: 1, IO: experiment.IOPassthrough},
		{Depth: 2, IO: experiment.IOPassthrough},
		{Depth: 2, IO: experiment.IODVHVP},
		{Depth: 3, IO: experiment.IODVHVP},
		// Figure 10: Xen guest hypervisor.
		{Depth: 2, IO: experiment.IOParavirt, Guest: experiment.GuestXen},
		{Depth: 2, IO: experiment.IODVH, Guest: experiment.GuestXen},
	} {
		st, c := buildChecked(t, spec)
		drive(t, st, 120, profiles...)
		finish(t, spec, c)
	}
}

// TestZeroViolationsTimerFiring exercises the clock-driven path — armed
// timers actually firing and delivering interrupts — under the checker.
func TestZeroViolationsTimerFiring(t *testing.T) {
	for _, spec := range []experiment.Spec{
		{Depth: 2, IO: experiment.IODVH},
		{Depth: 3, IO: experiment.IODVH},
		{Depth: 2, IO: experiment.IOParavirt},
	} {
		st, c := buildChecked(t, spec)
		p, ok := workload.ProfileByName("memcached")
		if !ok {
			p = workload.Profiles()[0]
		}
		r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p}
		if _, err := r.RunFor(50_000_000); err != nil {
			t.Fatalf("%+v: RunFor: %v", spec, err)
		}
		finish(t, spec, c)
	}
}

// TestCheckerCatchesCorruptTSCChain is the fault-injection demonstration the
// checker exists for: after a clean run with DVH virtual timers, corrupting
// an intermediate hypervisor's TSC offset must trip the end-of-run chain
// re-verification even though every arm was consistent when it happened.
func TestCheckerCatchesCorruptTSCChain(t *testing.T) {
	spec := experiment.Spec{Depth: 3, IO: experiment.IODVH}
	st, c := buildChecked(t, spec)
	v := st.Target.VCPUs[0]
	if _, err := st.World.Execute(v, hyper.ProgramTimer(1_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := c.Finish(); err != nil {
		t.Fatalf("clean run not clean: %v", err)
	}

	// An L1-maintained VMCS in the middle of the chain silently gains a
	// bogus TSC offset, as a buggy guest hypervisor might write.
	mid := v.Parent.VMCS
	mid.SetTSCOffset(mid.TSCOffset() + 12345)

	if err := c.Finish(); err == nil {
		t.Fatal("checker missed the corrupted TSC-offset chain")
	}
	found := false
	for _, viol := range c.Violations() {
		if viol.Invariant == "tsc-offset-chain" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no tsc-offset-chain violation recorded: %v", c.Violations())
	}
}

// TestCheckerCatchesDroppedExit injects the other canonical engine bug: a
// forwarded exit whose handling is never recorded. Exit-count conservation
// must trip at the end-of-run sweep.
func TestCheckerCatchesDroppedExit(t *testing.T) {
	spec := experiment.Spec{Depth: 2, IO: experiment.IOParavirt}
	st, c := buildChecked(t, spec)
	drive(t, st, 60, workload.Profiles()[0])
	if err := c.Finish(); err != nil {
		t.Fatalf("clean run not clean: %v", err)
	}

	// Drop one handled exit, as an engine that lost a forwarded exit would.
	s := st.Machine.Stats
	dropped := false
injection:
	for i := range s.HandledExits {
		for lvl := range s.HandledExits[i] {
			if s.HandledExits[i][lvl] > 0 {
				s.HandledExits[i][lvl]--
				dropped = true
				break injection
			}
		}
	}
	if !dropped {
		t.Fatal("run recorded no handled exits to drop")
	}

	if err := c.Finish(); err == nil {
		t.Fatal("checker missed the dropped exit")
	}
	found := false
	for _, viol := range c.Violations() {
		if viol.Invariant == "exit-conservation" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no exit-conservation violation recorded: %v", c.Violations())
	}
}

// TestDVHFeaturesNeverIncreaseExits is the metamorphic property behind
// Figure 8: walking the paper's ablation ladder, each additional DVH feature
// may only remove hardware exits from an identical workload, never add them.
func TestDVHFeaturesNeverIncreaseExits(t *testing.T) {
	ladder := []struct {
		name string
		spec experiment.Spec
	}{
		{"paravirt", experiment.Spec{IO: experiment.IOParavirt}},
		{"DVH-VP", experiment.Spec{IO: experiment.IODVHVP, Features: core.FeaturesVP}},
		{"+vIOMMU-PI", experiment.Spec{IO: experiment.IODVHVP,
			Features: core.FeaturesVP | core.FeatureVIOMMUPostedInterrupts}},
		{"+vIPI", experiment.Spec{IO: experiment.IODVH,
			Features: core.FeaturesVP | core.FeatureVIOMMUPostedInterrupts | core.FeatureVirtualIPIs}},
		{"+vTimer", experiment.Spec{IO: experiment.IODVH,
			Features: core.FeaturesVP | core.FeatureVIOMMUPostedInterrupts | core.FeatureVirtualIPIs |
				core.FeatureVirtualTimers}},
		{"+vIdle", experiment.Spec{IO: experiment.IODVH,
			Features: core.FeaturesVP | core.FeatureVIOMMUPostedInterrupts | core.FeatureVirtualIPIs |
				core.FeatureVirtualTimers | core.FeatureVirtualIdle}},
		{"DVH", experiment.Spec{IO: experiment.IODVH, Features: core.FeaturesAll}},
	}
	for _, depth := range []int{2, 3} {
		prev := uint64(0)
		prevName := ""
		for i, step := range ladder {
			spec := step.spec
			spec.Depth = depth
			st, c := buildChecked(t, spec)
			drive(t, st, 100, workload.Profiles()...)
			finish(t, spec, c)
			exits := st.Machine.Stats.TotalHardwareExits()
			if i > 0 && exits > prev {
				t.Errorf("depth %d: %s takes %d hardware exits, more than %s's %d",
					depth, step.name, exits, prevName, prev)
			}
			prev, prevName = exits, step.name
		}
	}
}

// TestDeeperNestingNeverReducesCycles: adding a virtualization level can
// only add transition work; per-transaction cost must be monotone in depth
// for a fixed I/O mode and workload.
func TestDeeperNestingNeverReducesCycles(t *testing.T) {
	for _, tc := range []struct {
		io     experiment.IOMode
		depths []int
	}{
		{experiment.IOParavirt, []int{1, 2, 3}},
		{experiment.IODVH, []int{2, 3, 4}},
	} {
		for _, p := range workload.Profiles() {
			prev := 0.0
			for _, depth := range tc.depths {
				spec := experiment.Spec{Depth: depth, IO: tc.io}
				st, c := buildChecked(t, spec)
				r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p}
				res, err := r.Run(100)
				if err != nil {
					t.Fatalf("%+v %s: %v", spec, p.Name, err)
				}
				finish(t, spec, c)
				if res.CyclesPerTxn < prev {
					t.Errorf("%s/%v: depth %d is cheaper per txn (%.0f) than depth %d (%.0f)",
						p.Name, tc.io, depth, res.CyclesPerTxn, depth-1, prev)
				}
				prev = res.CyclesPerTxn
			}
		}
	}
}

// TestRandomCellsZeroViolations samples the (depth, I/O, guest, workload)
// space with a seeded generator; every sampled cell must run violation-free.
func TestRandomCellsZeroViolations(t *testing.T) {
	rng := sim.NewRNG(0x5eed)
	profiles := workload.Profiles()
	guests := []experiment.GuestKind{experiment.GuestKVM, experiment.GuestXen, experiment.GuestHyperV}
	for i := 0; i < 10; i++ {
		depth := 1 + rng.Intn(3)
		var io experiment.IOMode
		switch depth {
		case 1:
			io = []experiment.IOMode{experiment.IOParavirt, experiment.IOPassthrough}[rng.Intn(2)]
		default:
			io = []experiment.IOMode{experiment.IOParavirt, experiment.IOPassthrough,
				experiment.IODVHVP, experiment.IODVH}[rng.Intn(4)]
		}
		spec := experiment.Spec{Depth: depth, IO: io, Guest: guests[rng.Intn(len(guests))]}
		st, c := buildChecked(t, spec)
		drive(t, st, 40+rng.Intn(80), profiles[rng.Intn(len(profiles))])
		finish(t, spec, c)
	}
}

// TestDisableVirtualIPIsAtL2 turns virtual IPIs off at the L2 guest
// hypervisor of a depth-3 DVH stack. L3 IPIs then forward to L2, whose own
// ICR write exits from the L2 VM — which still runs virtual IPIs, so it
// needs a published VCIMT of its own. Every IPI must succeed and the run
// must stay violation-free, with the plan cache on and off alike.
func TestDisableVirtualIPIsAtL2(t *testing.T) {
	var costs [2][]sim.Cycles
	for i, cache := range []bool{true, false} {
		spec := experiment.Spec{Depth: 3, IO: experiment.IODVH}
		st, c := buildChecked(t, spec)
		st.World.SetPlanCache(cache)
		st.DVH.DisableAt(st.VMs[1].GuestHyp, core.FeatureVirtualIPIs)
		for n := 0; n < 4; n++ {
			cost, err := st.World.Execute(st.Target.VCPUs[0], hyper.SendIPI(1, apic.VectorReschedule))
			if err != nil {
				t.Fatalf("cache=%v: L3 SendIPI after DisableAt: %v", cache, err)
			}
			costs[i] = append(costs[i], cost)
		}
		drive(t, st, 60, workload.Profiles()[0])
		finish(t, spec, c)
	}
	for n := range costs[0] {
		if costs[0][n] != costs[1][n] {
			t.Errorf("IPI %d: cached cost %v != live cost %v", n, costs[0][n], costs[1][n])
		}
	}
}
