package hyper

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file holds the virtio backend paths the pipeline's emulate, forward
// and deliver stages share: backend work at the providing level and the
// cascade kick toward hardware.

// backendWork runs a virtual device's backend at the level that provides it:
// the calibrated backend work at that hypervisor's speed plus, for a
// cascaded device, the kick of the lower device it uses to reach hardware.
func (w *World) backendWork(v *VCPU, dev *AssignedDevice, provider int) (sim.Cycles, error) {
	c := &w.Costs
	stats := w.Host.Machine.Stats
	cost := c.VirtioBackendWork
	stats.ChargeLevel(provider, c.VirtioBackendWork)
	stats.Inc(trace.CounterVirtioKicks, 1)

	if provider == 0 || dev.Lower == nil {
		// The host backend talks to the physical device directly.
		w.Host.Machine.NIC.TxFrames++
		return cost, nil
	}
	// Cascade: the provider's backend kicks its own (lower) virtio device.
	kick, err := w.execAsLevel(v, provider, DevNotify(dev.Lower.Doorbell))
	if err != nil {
		return 0, err
	}
	return cost + kick, nil
}

// HostBackendKick runs the host-side backend for a host-provided device on
// behalf of an interceptor (DVH virtual-passthrough doorbell handling).
func (w *World) HostBackendKick(v *VCPU, dev *AssignedDevice) (sim.Cycles, error) {
	return w.backendWork(v, dev, 0)
}
