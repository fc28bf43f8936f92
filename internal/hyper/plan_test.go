package hyper

import (
	"reflect"
	"testing"

	"repro/internal/apic"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

// capsStack is testStack with an explicit host capability word, for the
// no-shadowing arm of the equivalence matrix.
func capsStack(t testing.TB, depth int, caps vmx.Caps) (*World, []*VM) {
	t.Helper()
	m := machine.MustNew(machine.Config{
		Name: "plan-test", CPUs: 10, MemoryBytes: 64 << 30, Caps: caps, NICVFs: 4,
	})
	host := NewHost(m, KVM{})
	w := NewWorld(host)
	var vms []*VM
	h := host
	memBytes := uint64(16 << 30)
	for lvl := 1; lvl <= depth; lvl++ {
		vm, err := h.CreateVM(VMConfig{Name: vmName(lvl), VCPUs: 4, MemBytes: memBytes})
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
		if lvl < depth {
			h = vm.InstallHypervisor(KVM{}, "kvm-L"+string(rune('0'+lvl)))
			memBytes -= 4 << 30
		}
	}
	return w, vms
}

// planMatrixOps is the operation mix the equivalence matrix runs twice per
// world: the repeat guarantees the cached world is replaying compiled plans,
// not just compiling them.
func planMatrixOps(vms []*VM, dev *AssignedDevice) []Op {
	ops := []Op{
		Hypercall(),
		ProgramTimer(50_000),
		SendIPI(1, apic.VectorReschedule),
		EOI(),
		Hypercall(),
		SendIPI(1, apic.VectorReschedule),
	}
	if dev != nil {
		ops = append(ops, DevNotify(dev.Doorbell), DevNotify(dev.Doorbell))
	}
	return ops
}

// runPlanMatrix drives one world through the op mix and returns the per-op
// costs. Both cache modes must produce identical costs AND identical world
// state (stats, trace) afterwards.
func runPlanMatrix(t *testing.T, w *World, vms []*VM, dev *AssignedDevice) []sim.Cycles {
	t.Helper()
	v := vms[len(vms)-1].VCPUs[0]
	var costs []sim.Cycles
	for _, op := range planMatrixOps(vms, dev) {
		c, err := w.Execute(v, op)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, c)
	}
	return costs
}

// TestForwardPlanReplayEquivalence is the heart of the cache's correctness
// claim: for every depth and capability configuration, a world replaying
// compiled plans and a world re-running the live recursion produce identical
// per-op costs, identical stats tables (exit counts by reason and handler
// level, per-level cycles, named counters) and an identical trace timeline.
func TestForwardPlanReplayEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		depth int
		caps  vmx.Caps
	}{
		{"L2", 2, vmx.HardwareCaps},
		{"L3", 3, vmx.HardwareCaps},
		{"L4", 4, vmx.HardwareCaps},
		{"L2-noshadow", 2, vmx.HardwareCaps.Without(vmx.CapVMCSShadowing)},
		{"L3-noshadow", 3, vmx.HardwareCaps.Without(vmx.CapVMCSShadowing)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(cache bool) (*World, []*VM, *AssignedDevice) {
				w, vms := capsStack(t, tc.depth, tc.caps)
				w.SetPlanCache(cache)
				w.Tracer = trace.NewRecorder(4096)
				var dev *AssignedDevice
				for _, vm := range vms {
					var err error
					if dev, err = AttachParavirt(vm, DevNet, "net"); err != nil {
						t.Fatal(err)
					}
				}
				return w, vms, dev
			}
			cw, cvms, cdev := build(true)
			lw, lvms, ldev := build(false)

			cCosts := runPlanMatrix(t, cw, cvms, cdev)
			lCosts := runPlanMatrix(t, lw, lvms, ldev)

			if !reflect.DeepEqual(cCosts, lCosts) {
				t.Errorf("per-op costs diverge:\ncached: %v\nlive:   %v", cCosts, lCosts)
			}
			cs, ls := cw.Host.Machine.Stats, lw.Host.Machine.Stats
			if cs.HardwareExits != ls.HardwareExits {
				t.Error("HardwareExits tables diverge")
			}
			if cs.HandledExits != ls.HandledExits {
				t.Error("HandledExits tables diverge")
			}
			if cs.LevelCycles != ls.LevelCycles {
				t.Error("LevelCycles diverge")
			}
			if cs.GuestCycles != ls.GuestCycles {
				t.Error("GuestCycles diverge")
			}
			if cs.String() != ls.String() {
				t.Errorf("stats reports diverge:\n--- cached ---\n%s--- live ---\n%s", cs, ls)
			}
			if !reflect.DeepEqual(cw.Tracer.Events(), lw.Tracer.Events()) {
				t.Errorf("trace timelines diverge:\n--- cached ---\n%s--- live ---\n%s",
					cw.Tracer.Timeline(), lw.Tracer.Timeline())
			}
			if cw.Plan.Replays == 0 {
				t.Error("cached world never replayed a plan — the test exercised nothing")
			}
			if lw.Plan.Compiles != 0 || lw.Plan.Replays != 0 {
				t.Errorf("live world touched the plan cache: %+v", lw.Plan)
			}
		})
	}
}

// TestForwardPlanSteadyStateCaching pins the cache's amortization contract:
// after the first exit of a given (reason, owner) shape, repeats replay
// without recompiling.
func TestForwardPlanSteadyStateCaching(t *testing.T) {
	w, vms := testStack(t, 3)
	v := vms[2].VCPUs[0]
	exec(t, w, v, Hypercall())
	compiles := w.Plan.Compiles
	if compiles == 0 {
		t.Fatal("first forwarded exit compiled no plan")
	}
	first := exec(t, w, v, Hypercall())
	replays := w.Plan.Replays
	for i := 0; i < 50; i++ {
		if got := exec(t, w, v, Hypercall()); got != first {
			t.Fatalf("replayed hypercall cost %v, want stable %v", got, first)
		}
	}
	if w.Plan.Compiles != compiles {
		t.Errorf("steady-state repeats recompiled: %d -> %d compiles", compiles, w.Plan.Compiles)
	}
	if w.Plan.Replays <= replays {
		t.Error("steady-state repeats did not replay")
	}
}

// TestForwardPlanInvalidation mutates each input of the plan key mid-run —
// cost model, host caps, topology — and requires recompilation with results
// identical to a fresh world built in the mutated configuration.
func TestForwardPlanInvalidation(t *testing.T) {
	t.Run("cost-model", func(t *testing.T) {
		w, vms := testStack(t, 2)
		v := vms[1].VCPUs[0]
		before := exec(t, w, v, Hypercall())
		exec(t, w, v, Hypercall())

		costs := w.Costs
		costs.ReflectWork *= 2
		w.SetCosts(costs)
		invalidations := w.Plan.Invalidations
		after := exec(t, w, v, Hypercall())
		if after <= before {
			t.Errorf("doubling ReflectWork left forwarded cost at %v (was %v): stale plan replayed", after, before)
		}
		if w.Plan.Invalidations != invalidations+1 {
			t.Errorf("SetCosts did not flush the plan table (invalidations %d -> %d)", invalidations, w.Plan.Invalidations)
		}

		// A live (uncached) world with the same mutated model must agree.
		ref, refVMs := testStack(t, 2)
		ref.SetPlanCache(false)
		ref.SetCosts(costs)
		if want := exec(t, ref, refVMs[1].VCPUs[0], Hypercall()); after != want {
			t.Errorf("recompiled cost %v != live cost %v under mutated model", after, want)
		}
	})

	t.Run("host-caps", func(t *testing.T) {
		w, vms := testStack(t, 2)
		v := vms[1].VCPUs[0]
		shadowed := exec(t, w, v, Hypercall())
		exec(t, w, v, Hypercall())

		w.SetHostCaps(w.Host.Caps.Without(vmx.CapVMCSShadowing))
		unshadowed := exec(t, w, v, Hypercall())
		if unshadowed < 3*shadowed {
			t.Errorf("dropping VMCS shadowing mid-run: cost %v vs shadowed %v — stale plan replayed", unshadowed, shadowed)
		}
		// And back: re-granting shadowing must restore the original cost.
		w.SetHostCaps(w.Host.Caps.With(vmx.CapVMCSShadowing))
		if again := exec(t, w, v, Hypercall()); again != shadowed {
			t.Errorf("re-enabling shadowing: cost %v, want %v", again, shadowed)
		}
	})

	t.Run("viommu-caps", func(t *testing.T) {
		// Regression: ProvideVIOMMU rewrites capability words after setup
		// (the DVH enablement path) and must bump CapsGen like SetHostCaps
		// does — nvlint's cachegen rule caught it replaying stale plans.
		w, vms := testStack(t, 2)
		v := vms[1].VCPUs[0]
		exec(t, w, v, Hypercall())
		exec(t, w, v, Hypercall())
		compiles := w.Plan.Compiles

		vms[0].ProvideVIOMMU(true)
		exec(t, w, v, Hypercall())
		if w.Plan.Compiles == compiles {
			t.Errorf("vIOMMU grant did not recompile plans (compiles stuck at %d); CapsGen bump missing", compiles)
		}
	})

	t.Run("topology", func(t *testing.T) {
		w, vms := testStack(t, 2)
		v := vms[1].VCPUs[0]
		before := exec(t, w, v, Hypercall())
		compiles := w.Plan.Compiles

		// A topology mutation (new sibling VM) moves TopoGen; the next exit
		// must recompile — same shape here, so the same cost, but freshly.
		if _, err := vms[0].GuestHyp.CreateVM(VMConfig{Name: "L2-sibling", VCPUs: 1, MemBytes: 1 << 30}); err != nil {
			t.Fatal(err)
		}
		after := exec(t, w, v, Hypercall())
		if after != before {
			t.Errorf("sibling VM changed forwarded cost: %v -> %v", before, after)
		}
		if w.Plan.Compiles != compiles+1 {
			t.Errorf("topology change did not recompile (compiles %d -> %d)", compiles, w.Plan.Compiles)
		}
	})
}

// slowPersonality is a KVM variant with a heavier reflect path, for the
// personality-pinning test.
type slowPersonality struct{ KVM }

func (slowPersonality) Name() string { return "slow" }
func (slowPersonality) ReflectScript() Script {
	return Script{VMAccesses: 160, PrivOps: 20, SoftWork: 1400, Resume: true}
}

// TestForwardPlanPersonalityPinning swaps a guest hypervisor's personality in
// place — a mutation no generation counter observes — and requires the plan's
// own personality pins to force recompilation rather than replay a stale
// tree.
func TestForwardPlanPersonalityPinning(t *testing.T) {
	w, vms := testStack(t, 3)
	v := vms[2].VCPUs[0]
	before := exec(t, w, v, Hypercall())
	exec(t, w, v, Hypercall())

	vms[0].GuestHyp.Personality = slowPersonality{}
	after := exec(t, w, v, Hypercall())
	if after <= before {
		t.Errorf("slower L1 personality left L3 hypercall at %v (was %v): stale plan replayed", after, before)
	}

	ref, refVMs := testStack(t, 3)
	ref.SetPlanCache(false)
	refVMs[0].GuestHyp.Personality = slowPersonality{}
	if want := exec(t, ref, refVMs[2].VCPUs[0], Hypercall()); after != want {
		t.Errorf("recompiled cost %v != live cost %v under swapped personality", after, want)
	}
}

// TestPlanCacheEnvDefault pins the escape hatch's parsing: empty and "0"
// leave the cache on, anything else turns it off.
func TestPlanCacheEnvDefault(t *testing.T) {
	host := NewHost(machine.MustNew(machine.Config{Name: "env", CPUs: 2, MemoryBytes: 1 << 30}), KVM{})
	for _, tc := range []struct {
		val  string
		want bool
	}{{"", true}, {"0", true}, {"1", false}, {"yes", false}} {
		t.Setenv(NoPlanCacheEnv, tc.val)
		if got := NewWorld(host).PlanCacheEnabled(); got != tc.want {
			t.Errorf("%s=%q: PlanCacheEnabled() = %v, want %v", NoPlanCacheEnv, tc.val, got, tc.want)
		}
	}
}

// TestForwardPlanReplayAllocFree proves the acceptance criterion directly:
// once a plan is compiled, replaying it allocates nothing.
func TestForwardPlanReplayAllocFree(t *testing.T) {
	w, vms := testStack(t, 3)
	v := vms[2].VCPUs[0]
	exec(t, w, v, Hypercall()) // compile
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := w.Execute(v, Hypercall()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state replay allocates %.1f times per op, want 0", allocs)
	}
	if w.Plan.Replays < 200 {
		t.Errorf("alloc loop replayed only %d times — not on the replay path", w.Plan.Replays)
	}
}

// TestPlanTableForwardAndWakeRowsDisjoint interleaves forwarded HLT exits
// and wakes on one vCPU. Both run at the same level with the same exit
// reason (the L2 hypervisor traps the L3 HLT and owns the idle ladder), so
// only the table's separate forward and delivery-kind rows keep their plans
// apart: a shared slot would recompile on every alternation. After warm-up
// nothing recompiles, and every step equals the live twin's.
func TestPlanTableForwardAndWakeRowsDisjoint(t *testing.T) {
	build := func(cache bool) (*World, *VCPU) {
		w, vms := testStack(t, 3)
		w.SetPlanCache(cache)
		w.Tracer = trace.NewRecorder(8192)
		return w, vms[2].VCPUs[0]
	}
	cw, cv := build(true)
	lw, lv := build(false)
	round := func(w *World, v *VCPU) [2]sim.Cycles {
		halt := exec(t, w, v, Halt())
		wake, err := w.WakeIfIdle(v)
		if err != nil {
			t.Fatal(err)
		}
		return [2]sim.Cycles{halt, wake}
	}
	if idleOwner := cw.ownerLevel(cv, Op{Kind: OpHLT}); idleOwner != 2 {
		t.Fatalf("L3 HLT owner = L%d, want L2 — the forward and wake plans must share a level", idleOwner)
	}
	round(cw, cv)
	round(lw, lv)
	compiles, deliveryCompiles := cw.Plan.Compiles, cw.Plan.DeliveryCompiles
	if compiles == 0 || deliveryCompiles == 0 {
		t.Fatalf("warm-up compiled %d forward and %d delivery plans, want both > 0", compiles, deliveryCompiles)
	}
	for i := 0; i < 8; i++ {
		if c, l := round(cw, cv), round(lw, lv); c != l {
			t.Fatalf("round %d: cached (halt, wake) = %v, live = %v", i, c, l)
		}
	}
	if cw.Plan.Compiles != compiles || cw.Plan.DeliveryCompiles != deliveryCompiles {
		t.Errorf("interleaved HLT and wake recompiled: forward %d -> %d, delivery %d -> %d",
			compiles, cw.Plan.Compiles, deliveryCompiles, cw.Plan.DeliveryCompiles)
	}
	if cs, ls := cw.Host.Machine.Stats, lw.Host.Machine.Stats; cs.String() != ls.String() {
		t.Errorf("stats reports diverge:\n--- cached ---\n%s--- live ---\n%s", cs, ls)
	}
	if !reflect.DeepEqual(cw.Tracer.Events(), lw.Tracer.Events()) {
		t.Errorf("trace timelines diverge:\n--- cached ---\n%s--- live ---\n%s", cw.Tracer.Timeline(), lw.Tracer.Timeline())
	}
}

// TestPlanKindCounters checks the counter choice of every plan kind:
// forwarded exits count in Compiles/Replays and every delivery kind in
// DeliveryCompiles/DeliveryReplays, so the plan.* benchmark counts keep
// their meaning. The first call compiles and replays, the second only
// replays, and both cost what the live walk costs.
func TestPlanKindCounters(t *testing.T) {
	w, vms := testStack(t, 3)
	v := vms[2].VCPUs[0]
	stack, err := w.stack(v)
	if err != nil {
		t.Fatal(err)
	}
	kvm := stack[2].Personality
	for _, tc := range []struct {
		name     string
		kind     planKind
		reason   vmx.ExitReason
		script   Script
		stack    []*Hypervisor
		delivery bool
	}{
		{"forward", kindForward, vmx.ExitVMCALL, Script{}, stack, false},
		{"inject", kindInject, vmx.ExitExternalInterrupt, kvm.InjectScript(), stack, true},
		{"cascade", kindCascade, vmx.ExitEPTViolation, Script{}, stack, true},
		{"wake", kindWake, vmx.ExitHLT, Script{}, nil, true},
		{"switch", kindSwitch, vmx.ExitReason(0), switchScript(), stack, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w.SetPlanCache(false)
			live := w.chargePath(v, tc.stack, tc.kind, tc.reason, 2, tc.script)
			w.SetPlanCache(true)
			before := w.Plan
			for i := 0; i < 2; i++ {
				if got := w.chargePath(v, tc.stack, tc.kind, tc.reason, 2, tc.script); got != live {
					t.Errorf("call %d: cached cost %v != live cost %v", i, got, live)
				}
			}
			want := before
			if tc.delivery {
				want.DeliveryCompiles++
				want.DeliveryReplays += 2
			} else {
				want.Compiles++
				want.Replays += 2
			}
			if w.Plan != want {
				t.Errorf("counters after two calls = %+v, want %+v", w.Plan, want)
			}
		})
	}
}
