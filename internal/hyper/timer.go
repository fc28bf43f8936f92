package hyper

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file holds the timer plumbing behind the pipeline: hrtimer arming for
// host-emulated and DVH virtual timers, and the delivery-policy extension an
// interceptor can implement to post fired timers straight to nested vCPUs.

// TimerDeliveryPolicy is an optional extension of Interceptor: when a
// registered interceptor implements it, fired virtual-timer interrupts can be
// posted straight to the nested vCPU instead of being injected through its
// guest hypervisor — the further optimization Section 3.2 of the paper
// describes (the only extra information needed is the vector the nested VM
// programmed, which the LAPIC model holds).
type TimerDeliveryPolicy interface {
	DirectTimerDelivery(v *VCPU) bool
}

// armHostTimer writes deadline to v's LAPIC and moves the host hrtimer
// backing it to that deadline; a zero deadline disarms both. The LAPIC
// deadline and the engine timer change together, so an expiry fires only at
// the deadline the guest last wrote (SDM: the timer fires when the TSC
// reaches the last value written to IA32_TSC_DEADLINE).
func (w *World) armHostTimer(v *VCPU, deadline uint64) {
	v.LAPIC.SetTSCDeadline(deadline)
	v.timerWorld = w
	eng := w.Host.Machine.Engine
	if deadline == 0 {
		eng.Disarm(&v.timer)
		return
	}
	eng.Arm(&v.timer, sim.Time(deadline))
}

// expireTimer is v's engine-timer callback, bound once when the vCPU is
// created: the timer interrupt is latched into the LAPIC and delivered
// through the world that armed it. A vector still pending or in service
// absorbs the expiry (counted as timer.coalesced) with nothing delivered.
func (v *VCPU) expireTimer() {
	w := v.timerWorld
	if v.LAPIC.FireTimer() {
		if _, err := w.DeliverTimerIRQ(v); err != nil {
			// No Execute caller exists on an engine callback; park the
			// failure where the run's driver must look for it.
			w.setAsyncErr(err)
		}
		return
	}
	// FireTimer clears the deadline exactly when an unmasked timer expired,
	// so a cleared deadline with nothing delivered is a coalesced vector.
	if v.LAPIC.TSCDeadline() == 0 {
		w.Host.Machine.Stats.Inc(trace.CounterTimerCoalesced, 1)
	}
}

// ArmVirtualTimer writes the host deadline backing a DVH virtual timer for a
// nested vCPU and arms the host hrtimer at it; firing and wake behavior match
// the host's own timers. The deadline is in host TSC units — the guest
// deadline plus the combined TSC-offset chain. A zero deadline disarms the
// timer, as a snapshot restore of a vCPU with no timer pending does.
func (w *World) ArmVirtualTimer(v *VCPU, deadline uint64) {
	w.armHostTimer(v, deadline)
	if w.Check != nil && deadline != 0 {
		w.Check.TimerArmed(w, v, deadline)
	}
}
