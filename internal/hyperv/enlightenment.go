package hyperv

import (
	"repro/internal/hyper"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Enlightenment is the host-side (L0) half of Hyper-V's nested
// enlightenments, registered on the world's interceptor chain. It models the
// TLFS "direct virtual flush" optimization KVM implements for nested
// Hyper-V: the L1 Hyper-V opts in to letting L0 execute its guests'
// flush-class hypercalls (HvFlushVirtualAddressSpace and friends) directly,
// so an L2 TLB-maintenance hypercall is handled entirely at the host instead
// of being reflected up through the full Figure 1a forwarding path. It is
// the same shape as DVH — virtual hardware provided directly to nested VMs —
// but hypervisor-specific, which is exactly what the unified interceptor
// chain exists to express: a world can stack it with core.DVH and each
// claims its own exit class.
//
// The simulator's Op model carries no hypercall code, so the workload
// generator's OpHypercall stands in for the flush-class calls the
// enlightenment covers; only nested VMs whose immediate hypervisor is the
// Hyper-V personality are eligible, mirroring the opt-in.
type Enlightenment struct{}

// InterceptPriority places the enlightenment ahead of DVH
// (core.InterceptPriority 100): Hyper-V claims its own guests' hypercalls
// before the generic chain sees them. DVH never claims hypercalls, so the
// ordering is about determinism, not conflict.
const InterceptPriority = 50

// InterceptorInfo implements hyper.Interceptor.
func (Enlightenment) InterceptorInfo() (string, int) {
	return "hyperv-enlightenment", InterceptPriority
}

// Claims implements hyper.Interceptor: the host claims flush-class
// hypercalls from a nested VM running under a Hyper-V guest hypervisor, the
// only VMs that opted in to the enlightenment.
func (Enlightenment) Claims(v *hyper.VCPU, op hyper.Op) bool {
	if op.Kind != hyper.OpHypercall {
		return false
	}
	_, ok := v.VM.Owner.Personality.(HyperV)
	return ok
}

// Handle implements hyper.Interceptor: a claimed hypercall is executed at
// L0. Returned work is charged to the stats sink, keeping the settle point's
// cycle-conservation invariant.
func (Enlightenment) Handle(w *hyper.World, v *hyper.VCPU, op hyper.Op) (sim.Cycles, error) {
	stats := w.Host.Machine.Stats
	work := w.Costs.EnlightenedHypercallWork
	stats.ChargeLevel(0, work)
	stats.Inc(trace.CounterHyperVEnlightenedHypercalls, 1)
	return work, nil
}

var _ hyper.Interceptor = Enlightenment{}
