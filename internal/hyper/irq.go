package hyper

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

// This file is the deliver stage of the pipeline: interrupt deliveries
// (timer, device completion), inbound device data, and idle wakes. Each
// public entry point is one transact call that runs the unexported body —
// the checker frames stack when a delivery happens inside a larger
// transaction (an IPI waking its destination).

// DeliverTimerIRQ delivers a fired timer interrupt to its vCPU and returns
// the delivery cost. A level-1 VM (and, with the direct-delivery extension,
// a nested VM under DVH virtual timers) receives it as a posted interrupt;
// otherwise the guest hypervisor emulating the timer must run its injection
// path first.
func (w *World) DeliverTimerIRQ(v *VCPU) (sim.Cycles, error) {
	var tx ExitContext
	return w.transact(&tx, trace.BoundaryTimerIRQ, v, Op{}, nil)
}

func (w *World) deliverTimerIRQ(v *VCPU) (sim.Cycles, error) {
	c := &w.Costs
	stats := w.Host.Machine.Stats
	v.PID.Post(v.LAPIC.TimerVector())
	v.PID.Sync(v.LAPIC)

	direct := v.VM.Level <= 1
	if !direct {
		// A registered interceptor with a delivery policy (DVH virtual
		// timers) can post the interrupt straight to the nested vCPU.
		for _, it := range w.interceptors {
			if policy, ok := it.(TimerDeliveryPolicy); ok && policy.DirectTimerDelivery(v) {
				direct = true
				stats.Inc(trace.CounterDVHVTimerDirectDeliveries, 1)
				break
			}
		}
	}
	var cost sim.Cycles
	if direct {
		stats.ChargeLevel(0, c.InjectPostedRunning)
		cost = c.InjectPostedRunning
	} else {
		stack, err := w.stack(v)
		if err != nil {
			return 0, err
		}
		injector := v.VM.Level - 1
		cost = w.chargePath(v, stack, kindInject, vmx.ExitExternalInterrupt, injector, stack[injector].Personality.InjectScript())
	}
	wake, err := w.WakeIfIdle(v)
	if err != nil {
		return 0, err
	}
	return cost + wake, nil
}

// WakeIfIdle transitions an idle vCPU back to running and returns the wake
// cost. The notification (a posted interrupt) is always processed by the
// host, which unblocks the destination; each guest hypervisor level that had
// parked the vCPU then runs its scheduler and re-enters the guest. The big
// idle penalty of nested virtualization is paid on the way *into* idle (the
// forwarded HLT exit), which is exactly what DVH virtual idle removes.
func (w *World) WakeIfIdle(dest *VCPU) (sim.Cycles, error) {
	var tx ExitContext
	return w.transact(&tx, trace.BoundaryWake, dest, Op{}, nil)
}

func (w *World) wakeIfIdle(dest *VCPU) (sim.Cycles, error) {
	if !dest.Idle {
		return 0, nil
	}
	dest.Idle = false
	w.Host.Machine.Stats.Inc(trace.CounterIdleWakes, 1)

	// The idle-owner level is recomputed live on every wake — it depends on
	// the stack's HLT-exiting controls, which DVH virtual idle flips without
	// moving any generation — and is the wake plan's key. The no-wake case
	// returned above, so "a wake happened" is in the key by construction.
	idleOwner := w.ownerLevel(dest, Op{Kind: OpHLT})
	return w.chargePath(dest, nil, kindWake, vmx.ExitHLT, idleOwner, Script{}), nil
}

// wakeLadderCost is the wake ladder's pure charge tree: the host processes
// the posted notification and unblocks the destination, then every guest
// hypervisor level that had parked the vCPU runs its scheduler and re-enters
// the guest. Written once over the sink, like every cached charge tree.
func (w *World) wakeLadderCost(idleOwner int, sink walkSink) sim.Cycles {
	c := &w.Costs
	sink.chargeLevel(0, c.WakeWork)
	cost := c.WakeWork
	for j := 1; j <= idleOwner; j++ {
		sink.chargeLevel(j, c.GuestWakeWork)
		cost += c.GuestWakeWork
	}
	return cost
}

// DeliverDeviceIRQ models a completion interrupt from a device to the vCPU
// that owns its queue, returning the delivery cost. Posted-capable paths
// deliver without an exit; otherwise the interrupt must be injected by the
// hypervisor level that interposes on it.
func (w *World) DeliverDeviceIRQ(dev *AssignedDevice, target *VCPU) (sim.Cycles, error) {
	var tx ExitContext
	return w.transact(&tx, trace.BoundaryDeviceIRQ, target, Op{}, dev)
}

func (w *World) deliverDeviceIRQ(dev *AssignedDevice, target *VCPU) (sim.Cycles, error) {
	c := &w.Costs
	stats := w.Host.Machine.Stats
	target.LAPIC.Deliver(dev.IRQ)
	stats.Inc(trace.CounterIRQDelivered, 1)

	wake, err := w.WakeIfIdle(target)
	if err != nil {
		return 0, err
	}
	if dev.PostedDelivery {
		stats.ChargeLevel(0, c.InjectPostedRunning)
		return c.InjectPostedRunning + wake, nil
	}
	// Exit-based injection: the hypervisor that interposes on the interrupt
	// must run its (short) injection path. For a virtual-passthrough device
	// whose vIOMMU lacks posting, that is the guest hypervisor owning the
	// vIOMMU (level n-1).
	injector := target.VM.Level - 1
	if injector <= 0 {
		stats.ChargeLevel(0, c.InjectExitPath)
		return c.InjectExitPath + wake, nil
	}
	stack, err := w.stack(target)
	if err != nil {
		return 0, err
	}
	inj := w.chargePath(target, stack, kindInject, vmx.ExitExternalInterrupt, injector, stack[injector].Personality.InjectScript())
	return inj + wake, nil
}

// DeviceRX models inbound data arriving for a device: every interposing
// virtio backend processes and relays the data upward — the receive half of
// the paravirtual cascade — and the completion interrupt is then delivered
// to the target vCPU. For passthrough the data lands in VM memory directly;
// for virtual-passthrough only the host backend runs.
func (w *World) DeviceRX(dev *AssignedDevice, target *VCPU) (sim.Cycles, error) {
	var tx ExitContext
	return w.transact(&tx, trace.BoundaryDeviceRX, target, Op{}, dev)
}

func (w *World) deviceRX(dev *AssignedDevice, target *VCPU) (sim.Cycles, error) {
	var cost sim.Cycles
	w.Host.Machine.NIC.RxFrames++

	if dev.Virtual() {
		provider := dev.ProviderLevel
		var stack []*Hypervisor
		if provider >= 1 {
			var err error
			stack, err = w.stack(target)
			if err != nil {
				return 0, err
			}
		}
		cost += w.chargePath(target, stack, kindCascade, vmx.ExitEPTViolation, provider, Script{})
	}
	del, err := w.DeliverDeviceIRQ(dev, target)
	if err != nil {
		return 0, err
	}
	return cost + del, nil
}

// rxCascadeCost is the receive cascade's pure charge tree: the host backend
// (vhost) receives from the wire, then each interposing hypervisor's backend
// runs its receive path and re-queues the data into the next level's ring.
// stack may be nil when provider < 1 (nothing interposes).
func (w *World) rxCascadeCost(stack []*Hypervisor, provider int, sink walkSink) sim.Cycles {
	c := &w.Costs
	sink.chargeLevel(0, c.VirtioBackendWork)
	cost := c.VirtioBackendWork
	for j := 1; j <= provider; j++ {
		cost += w.guestPathCost(stack, vmx.ExitEPTViolation, j, stack[j].Personality.HandlerScript(vmx.ExitEPTViolation), sink)
		sink.chargeLevel(j, c.VirtioBackendWork)
		cost += c.VirtioBackendWork
	}
	return cost
}

// ipiDestination resolves an ICR destination to a vCPU of the sender's VM.
func (w *World) ipiDestination(v *VCPU, op Op) (*VCPU, error) {
	id := int(op.ICR.Dest())
	if id < 0 || id >= len(v.VM.VCPUs) {
		return nil, fmt.Errorf("hyper: IPI from %s to missing vCPU %d", v.Path(), id)
	}
	return v.VM.VCPUs[id], nil
}
