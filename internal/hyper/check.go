package hyper

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// InvariantChecker observes the engine/hypervisor boundary so an external
// validator (internal/check) can verify conservation laws after every
// operation without the engine knowing what is being checked. All methods are
// called on the single simulation goroutine.
//
// Op is passed by value for the same reason Interceptor.Claims and Handle
// take it by value: a pointer through the interface boundary would force
// every Execute call's op to escape, and the checked-off hot path must stay
// allocation-free.
type InvariantChecker interface {
	// Begin opens a frame when a boundary is entered; the returned token is
	// handed back to the matching End.
	Begin(w *World, v *VCPU, b trace.Boundary, op Op) int
	// End closes the frame with the boundary's returned cost and error.
	End(token int, w *World, v *VCPU, b trace.Boundary, op Op, cost sim.Cycles, err error)
	// TimerArmed reports a DVH virtual-timer arm with the host-TSC deadline
	// (the guest-programmed deadline plus the combined TSC-offset chain).
	TimerArmed(w *World, v *VCPU, hostDeadline uint64)
}
