package hyper

import (
	"reflect"
	"testing"

	"repro/internal/apic"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

// runDeliveryMatrix drives one world through a delivery-heavy mix — timer
// injections to a running and to a parked vCPU, device RX cascades, and IPIs
// waking an idle sibling — and returns the per-step costs. Both cache modes
// must produce identical costs AND identical world state afterwards.
func runDeliveryMatrix(t *testing.T, w *World, vms []*VM, dev *AssignedDevice) []sim.Cycles {
	t.Helper()
	inner := vms[len(vms)-1]
	v, sib := inner.VCPUs[0], inner.VCPUs[1]
	var costs []sim.Cycles
	step := func(c sim.Cycles, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, c)
	}
	// Timer injection to a running vCPU (no wake), twice: the repeat
	// guarantees the second goes through replay, not compile.
	step(w.DeliverTimerIRQ(v))
	step(w.DeliverTimerIRQ(v))
	// Park the vCPU, then deliver: injection plus the wake ladder.
	step(w.Execute(v, Halt()))
	step(w.DeliverTimerIRQ(v))
	// Inbound device data: the RX cascade plus the device-IRQ injection.
	step(w.DeviceRX(dev, v))
	step(w.DeviceRX(dev, v))
	// IPIs to an idle sibling: the wake path from the IPI owner's effects.
	step(w.Execute(sib, Halt()))
	step(w.Execute(v, SendIPI(1, apic.VectorReschedule)))
	step(w.Execute(sib, Halt()))
	step(w.Execute(v, SendIPI(1, apic.VectorReschedule)))
	return costs
}

// TestDeliveryPlanReplayEquivalence is the delivery-side counterpart of
// TestForwardPlanReplayEquivalence: for every depth and capability
// configuration, a world replaying compiled delivery plans and a world
// running the live recursions produce identical per-step costs, identical
// stats tables and an identical trace timeline.
func TestDeliveryPlanReplayEquivalence(t *testing.T) {
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
				w.Tracer = trace.NewRecorder(8192)
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

			cCosts := runDeliveryMatrix(t, cw, cvms, cdev)
			lCosts := runDeliveryMatrix(t, lw, lvms, ldev)

			if !reflect.DeepEqual(cCosts, lCosts) {
				t.Errorf("per-step costs diverge:\ncached: %v\nlive:   %v", cCosts, lCosts)
			}
			cs, ls := cw.Host.Machine.Stats, lw.Host.Machine.Stats
			if cs.String() != ls.String() {
				t.Errorf("stats reports diverge:\n--- cached ---\n%s--- live ---\n%s", cs, ls)
			}
			if !reflect.DeepEqual(cw.Tracer.Events(), lw.Tracer.Events()) {
				t.Errorf("trace timelines diverge:\n--- cached ---\n%s--- live ---\n%s",
					cw.Tracer.Timeline(), lw.Tracer.Timeline())
			}
			if cw.Plan.DeliveryReplays == 0 {
				t.Error("cached world never replayed a delivery plan — the test exercised nothing")
			}
			if lw.Plan.DeliveryCompiles != 0 || lw.Plan.DeliveryReplays != 0 {
				t.Errorf("live world touched the delivery-plan cache: %+v", lw.Plan)
			}
		})
	}
}

// TestDeliveryPlanSteadyStateCaching pins the amortization contract: after
// the first delivery of a given shape, repeats replay without recompiling.
func TestDeliveryPlanSteadyStateCaching(t *testing.T) {
	w, vms := testStack(t, 3)
	v := vms[2].VCPUs[0]
	deliver := func() sim.Cycles {
		c, err := w.DeliverTimerIRQ(v)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	deliver()
	compiles := w.Plan.DeliveryCompiles
	if compiles == 0 {
		t.Fatal("first timer delivery compiled no delivery plan")
	}
	first := deliver()
	replays := w.Plan.DeliveryReplays
	for i := 0; i < 50; i++ {
		if got := deliver(); got != first {
			t.Fatalf("replayed timer delivery cost %v, want stable %v", got, first)
		}
	}
	if w.Plan.DeliveryCompiles != compiles {
		t.Errorf("steady-state repeats recompiled: %d -> %d delivery compiles", compiles, w.Plan.DeliveryCompiles)
	}
	if w.Plan.DeliveryReplays <= replays {
		t.Error("steady-state repeats did not replay")
	}
}

// timerDelivery is the test shorthand for one timer delivery's cost.
func timerDelivery(t *testing.T, w *World, v *VCPU) sim.Cycles {
	t.Helper()
	c, err := w.DeliverTimerIRQ(v)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDeliveryPlanInvalidation mutates each input of the delivery-plan key
// mid-run — cost model, host caps, profile swap, topology — and requires
// recompilation with results identical to a fresh world built in the mutated
// configuration.
func TestDeliveryPlanInvalidation(t *testing.T) {
	t.Run("cost-model", func(t *testing.T) {
		w, vms := testStack(t, 3)
		v := vms[2].VCPUs[0]
		before := timerDelivery(t, w, v)
		timerDelivery(t, w, v)

		costs := w.Costs
		costs.ReflectWork *= 2
		w.SetCosts(costs)
		invalidations := w.Plan.Invalidations
		after := timerDelivery(t, w, v)
		if after <= before {
			t.Errorf("doubling ReflectWork left timer delivery at %v (was %v): stale delivery plan replayed", after, before)
		}
		if w.Plan.Invalidations != invalidations+1 {
			t.Errorf("SetCosts did not flush the plan table (invalidations %d -> %d)", invalidations, w.Plan.Invalidations)
		}

		ref, refVMs := testStack(t, 3)
		ref.SetPlanCache(false)
		ref.SetCosts(costs)
		if want := timerDelivery(t, ref, refVMs[2].VCPUs[0]); after != want {
			t.Errorf("recompiled delivery cost %v != live cost %v under mutated model", after, want)
		}
	})

	t.Run("host-caps", func(t *testing.T) {
		w, vms := testStack(t, 3)
		v := vms[2].VCPUs[0]
		shadowed := timerDelivery(t, w, v)
		timerDelivery(t, w, v)

		w.SetHostCaps(w.Host.Caps.Without(vmx.CapVMCSShadowing))
		unshadowed := timerDelivery(t, w, v)
		if unshadowed <= shadowed {
			t.Errorf("dropping VMCS shadowing mid-run: delivery cost %v vs shadowed %v — stale plan replayed", unshadowed, shadowed)
		}
		w.SetHostCaps(w.Host.Caps.With(vmx.CapVMCSShadowing))
		if again := timerDelivery(t, w, v); again != shadowed {
			t.Errorf("re-enabling shadowing: delivery cost %v, want %v", again, shadowed)
		}
	})

	t.Run("profile-swap", func(t *testing.T) {
		// SetProfile replaces the cost model AND the capability word in one
		// step; a delivery plan bakes both in, so the swap must recompile.
		w, vms := testStack(t, 3)
		v := vms[2].VCPUs[0]
		before := timerDelivery(t, w, v)
		timerDelivery(t, w, v)

		costs := w.Costs
		costs.HwExit += 777
		w.SetProfile(costs, w.Host.Caps.Without(vmx.CapVMCSShadowing))
		after := timerDelivery(t, w, v)
		if after <= before {
			t.Errorf("profile swap left timer delivery at %v (was %v): stale delivery plan replayed", after, before)
		}

		ref, refVMs := testStack(t, 3)
		ref.SetPlanCache(false)
		ref.SetProfile(costs, ref.Host.Caps.Without(vmx.CapVMCSShadowing))
		if want := timerDelivery(t, ref, refVMs[2].VCPUs[0]); after != want {
			t.Errorf("recompiled delivery cost %v != live cost %v under swapped profile", after, want)
		}
	})

	t.Run("topology", func(t *testing.T) {
		w, vms := testStack(t, 3)
		v := vms[2].VCPUs[0]
		before := timerDelivery(t, w, v)
		compiles := w.Plan.DeliveryCompiles

		if _, err := vms[0].GuestHyp.CreateVM(VMConfig{Name: "L2-sibling", VCPUs: 1, MemBytes: 1 << 30}); err != nil {
			t.Fatal(err)
		}
		after := timerDelivery(t, w, v)
		if after != before {
			t.Errorf("sibling VM changed delivery cost: %v -> %v", before, after)
		}
		if w.Plan.DeliveryCompiles != compiles+1 {
			t.Errorf("topology change did not recompile (delivery compiles %d -> %d)", compiles, w.Plan.DeliveryCompiles)
		}
	})
}

// injectorPersonality is a KVM variant with a heavier injection path, for the
// script-identity arm of the pinning test.
type injectorPersonality struct{ KVM }

func (injectorPersonality) Name() string { return "heavy-inject" }
func (injectorPersonality) InjectScript() Script {
	return Script{VMAccesses: 48, PrivOps: 6, SoftWork: 900, Resume: true}
}

// TestDeliveryPlanPersonalityPinning swaps guest-hypervisor personalities in
// place — mutations no generation counter observes — and requires the plan's
// personality pins and script-identity check to force recompilation.
func TestDeliveryPlanPersonalityPinning(t *testing.T) {
	t.Run("reflect-path", func(t *testing.T) {
		// A heavier L1 reflect script changes the intermediate levels of the
		// injection walk: caught by the pers[] pinning.
		w, vms := testStack(t, 3)
		v := vms[2].VCPUs[0]
		before := timerDelivery(t, w, v)
		timerDelivery(t, w, v)

		vms[0].GuestHyp.Personality = slowPersonality{}
		after := timerDelivery(t, w, v)
		if after <= before {
			t.Errorf("slower L1 personality left timer delivery at %v (was %v): stale delivery plan replayed", after, before)
		}

		ref, refVMs := testStack(t, 3)
		ref.SetPlanCache(false)
		refVMs[0].GuestHyp.Personality = slowPersonality{}
		if want := timerDelivery(t, ref, refVMs[2].VCPUs[0]); after != want {
			t.Errorf("recompiled delivery cost %v != live cost %v under swapped personality", after, want)
		}
	})

	t.Run("inject-script", func(t *testing.T) {
		// Swapping the injector's own personality changes the per-call script
		// guestPath receives: caught by the plan's script-identity check.
		w, vms := testStack(t, 3)
		v := vms[2].VCPUs[0]
		before := timerDelivery(t, w, v)
		timerDelivery(t, w, v)

		vms[1].GuestHyp.Personality = injectorPersonality{}
		after := timerDelivery(t, w, v)
		if after <= before {
			t.Errorf("heavier inject script left timer delivery at %v (was %v): stale delivery plan replayed", after, before)
		}

		ref, refVMs := testStack(t, 3)
		ref.SetPlanCache(false)
		refVMs[1].GuestHyp.Personality = injectorPersonality{}
		if want := timerDelivery(t, ref, refVMs[2].VCPUs[0]); after != want {
			t.Errorf("recompiled delivery cost %v != live cost %v under swapped inject script", after, want)
		}
	})
}

// TestDeliveryPlanWakeKeyedByIdleOwner pins the wake ladder's key: the
// idle-owner level is recomputed on every wake, so a control change that
// moves HLT interposition (DVH virtual idle) selects a different plan slot
// instead of replaying the old ladder.
func TestDeliveryPlanWakeKeyedByIdleOwner(t *testing.T) {
	wakeCost := func(virtualIdle bool) sim.Cycles {
		w, vms := testStack(t, 3)
		v := vms[2].VCPUs[0]
		exec(t, w, v, Halt())
		if virtualIdle {
			// Yield HLT interposition at the innermost guest hypervisor:
			// the wake ladder shortens. Flipping the control moves no
			// generation — only the live idle-owner recomputation sees it.
			v.VMCS.ClearControl(vmx.FieldProcBasedControls, vmx.ProcHLTExiting)
		}
		c, err := w.WakeIfIdle(v)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	full, short := wakeCost(false), wakeCost(true)
	if short >= full {
		t.Errorf("yielding HLT interposition did not shorten the wake ladder: %v >= %v", short, full)
	}
}

// TestDeliveryPlanReplayAllocFree proves the acceptance criterion on the
// delivery side: once compiled, replayed delivery paths allocate nothing.
func TestDeliveryPlanReplayAllocFree(t *testing.T) {
	w, vms := testStack(t, 3)
	v := vms[2].VCPUs[0]
	var dev *AssignedDevice
	for _, vm := range vms {
		var err error
		if dev, err = AttachParavirt(vm, DevNet, "net"); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("timer-injection", func(t *testing.T) {
		timerDelivery(t, w, v) // compile
		replays := w.Plan.DeliveryReplays
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := w.DeliverTimerIRQ(v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state timer delivery allocates %.1f times per op, want 0", allocs)
		}
		if w.Plan.DeliveryReplays < replays+200 {
			t.Error("alloc loop did not stay on the delivery replay path")
		}
	})

	t.Run("device-rx", func(t *testing.T) {
		if _, err := w.DeviceRX(dev, v); err != nil { // compile
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := w.DeviceRX(dev, v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state device RX allocates %.1f times per op, want 0", allocs)
		}
	})

	t.Run("wake", func(t *testing.T) {
		exec(t, w, v, Halt())
		if _, err := w.WakeIfIdle(v); err != nil { // compile
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			v.Idle = true
			if _, err := w.WakeIfIdle(v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state wake allocates %.1f times per op, want 0", allocs)
		}
	})
}
