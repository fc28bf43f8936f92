package xen

import (
	"fmt"

	"repro/internal/hyper"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Enlightenment is the host-side (L0) half of KVM's Xen hypercall offload
// (KVM_XEN_HVM_CONFIG), registered on the world's interceptor chain: the
// host implements Xen's event-channel ABI in-kernel, so an EVTCHNOP_send
// IPI from a VM running under a Xen guest hypervisor is delivered by L0
// directly — pending-bitmap update plus posted notification — instead of
// trapping into the nested Xen and riding the full forwarding path. Like
// hyperv.Enlightenment it is a DVH-shaped, hypervisor-specific backend the
// unified interceptor chain lets coexist with core.DVH.
type Enlightenment struct{}

// InterceptPriority places the Xen offload ahead of DVH
// (core.InterceptPriority 100): when both are registered and both could
// claim an IPI from a Xen-hosted VM, the Xen-native event-channel path wins
// deterministically.
const InterceptPriority = 60

// InterceptorInfo implements hyper.Interceptor.
func (Enlightenment) InterceptorInfo() (string, int) {
	return "xen-evtchn", InterceptPriority
}

// Claims implements hyper.Interceptor: the host claims IPIs from a nested
// VM running under a Xen guest hypervisor, whose event-channel ABI it
// implements in-kernel.
func (Enlightenment) Claims(v *hyper.VCPU, op hyper.Op) bool {
	if op.Kind != hyper.OpSendIPI {
		return false
	}
	_, ok := v.VM.Owner.Personality.(Xen)
	return ok
}

// Handle implements hyper.Interceptor: a claimed event-channel IPI is
// delivered at L0. The state effects mirror the host's own IPI emulation —
// post to the destination's posted-interrupt descriptor, sync, wake — and
// the returned work is charged to the stats sink, keeping the settle point's
// cycle-conservation invariant.
func (Enlightenment) Handle(w *hyper.World, v *hyper.VCPU, op hyper.Op) (sim.Cycles, error) {
	id := int(op.ICR.Dest())
	if id < 0 || id >= len(v.VM.VCPUs) {
		return 0, fmt.Errorf("xen: evtchn IPI from %s to missing vCPU %d", v.Path(), id)
	}
	dest := v.VM.VCPUs[id]
	dest.PID.Post(op.ICR.Vector())
	dest.PID.Sync(dest.LAPIC)
	stats := w.Host.Machine.Stats
	work := w.Costs.EvtchnNotifyWork
	wake, err := w.WakeIfIdle(dest)
	if err != nil {
		return 0, err
	}
	stats.ChargeLevel(0, work)
	stats.Inc(trace.CounterXenEvtchnIPIs, 1)
	return work + wake, nil
}

var _ hyper.Interceptor = Enlightenment{}
