package workload

import (
	"fmt"

	"repro/internal/apic"
	"repro/internal/hyper"
	"repro/internal/sim"
)

// Storm identifies one delivery-storm microworkload: a tight loop of
// interrupt deliveries, the traffic shape where nested virtualization's
// residual cost lives once exit forwarding is optimized — millions of timer
// ticks and reschedule IPIs, each multiplying into a reflected injection
// cascade unless it can be posted directly. The storms drive the engine's
// delivery paths (timer injection, wake ladders, IPI emulation) in steady
// state, which is exactly the regime the plan replay cache's delivery kinds serve.
type Storm int

const (
	// StormTimer is a timer tick storm: back-to-back timer interrupt
	// deliveries to one vCPU, with the vCPU found idle every fourth tick so
	// the delivery also runs the wake ladder.
	StormTimer Storm = iota
	// StormIPI is a reschedule-IPI flood: back-to-back IPIs to a sibling
	// vCPU, which is found halted every second send — the send+receive+wake
	// path, Table 1's SendIPI shape at storm rates.
	StormIPI
)

// Storms lists the delivery-storm workloads in display order.
func Storms() []Storm { return []Storm{StormTimer, StormIPI} }

func (s Storm) String() string {
	switch s {
	case StormTimer:
		return "timer-storm"
	case StormIPI:
		return "ipi-flood"
	}
	return fmt.Sprintf("Storm(%d)", int(s))
}

// RunStorm drives one delivery storm for the given number of delivered
// events and returns the average cycles per event. Setup operations that put
// the target into the state the storm assumes (the HLT that parks a vCPU
// before a waking delivery) are executed but excluded from the metric, like
// Table 1's SendIPI halt; the deliveries themselves — injection, cascade,
// wake — are what the average reports.
func RunStorm(w *hyper.World, v *hyper.VCPU, s Storm, events int) (sim.Cycles, error) {
	if events <= 0 {
		events = 1
	}
	var total sim.Cycles
	for i := 0; i < events; i++ {
		switch s {
		case StormTimer:
			// Every fourth tick finds the vCPU idle, so that delivery also
			// pays the per-level wake ladder.
			if i%4 == 3 {
				if _, err := w.Execute(v, hyper.Halt()); err != nil {
					return 0, err
				}
			}
			c, err := w.DeliverTimerIRQ(v)
			if err != nil {
				return 0, err
			}
			total += c
		case StormIPI:
			dest := v.VM.VCPUs[(v.ID+1)%len(v.VM.VCPUs)]
			if i%2 == 1 {
				if _, err := w.Execute(dest, hyper.Halt()); err != nil {
					return 0, err
				}
			}
			c, err := w.Execute(v, hyper.SendIPI(uint32(dest.ID), apic.VectorReschedule))
			if err != nil {
				return 0, err
			}
			total += c
		}
	}
	return total / sim.Cycles(events), nil
}
