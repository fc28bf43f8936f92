package hyper

import (
	"fmt"
	"os"

	"repro/internal/trace"
	"repro/internal/vmx"
)

// NoPlanCacheEnv disables the plan replay cache (plan.go) when set to
// anything but "" or "0": the escape hatch (and A/B lever) that forces every
// forwarded exit and every delivery path back through the live walk. Plans are compiled from the same
// recursions the live paths run, so results are byte-identical either way;
// the env var exists so that claim stays testable, not because the modes may
// legitimately differ.
const NoPlanCacheEnv = "NVSIM_NOPLANCACHE"

// PlanCacheStats counts plan-cache activity. Deliberately kept on the World
// rather than in trace.Stats: cache meta-traffic depends on whether the cache
// is on at all, and must not leak into experiment output (which is
// byte-identical across cache modes).
type PlanCacheStats struct {
	// Compiles counts cold walks of the forwarding recursion.
	Compiles uint64
	// Replays counts forwarded exits served from a compiled plan.
	Replays uint64
	// DeliveryCompiles counts cold walks of a delivery-path charge tree
	// (interrupt injection, RX cascade, wake ladder, scheduler switch).
	DeliveryCompiles uint64
	// DeliveryReplays counts delivery paths served from a compiled plan.
	DeliveryReplays uint64
	// Invalidations counts plan-table flushes caused by a moved topology,
	// cost-model or capability generation. Forward and delivery plans share
	// one table, so a flush invalidates both at once.
	Invalidations uint64
}

// World binds a host hypervisor, its cost model and the registered
// direct-handling interceptors into the execution engine guest operations
// run through. The engine itself is the exit-transaction pipeline
// (pipeline.go): dispatch stages live in dispatch.go, interrupt delivery in
// irq.go, timer plumbing in timer.go and virtio backends in backend.go.
//
// Accounting discipline: every method charges to the stats sink exactly the
// cycles it adds and returns their sum, so a caller's total always equals
// what was recorded. The pipeline's settle point is where the invariant
// checker verifies that promise per boundary.
type World struct {
	Host  *Hypervisor
	Costs CostModel
	// interceptors is the registered direct-handling chain, sorted by
	// (priority, name); consulted on every exit from a VM at level >= 2.
	// See RegisterInterceptor.
	interceptors []Interceptor
	// Tracer, when non-nil, records every hardware exit for timeline
	// inspection (cmd/nvtrace). A nil recorder costs nothing.
	Tracer *trace.Recorder
	// Stages, when non-nil, receives per-stage cycle attribution for every
	// settled outermost transaction (cmd/nvtrace -stages, the experiment
	// stage-breakdown figure). Attach with AttachStageStats or set directly;
	// a nil sink costs one branch at settle.
	Stages *trace.StageStats
	// txDepth is the current boundary nesting depth, maintained by transact
	// alone: 1 means the settling transaction is outermost and is the one
	// StageStats observes.
	txDepth int
	// Check, when non-nil, observes every boundary entry/exit for invariant
	// validation (internal/check). A nil checker costs one branch.
	Check InvariantChecker
	// asyncErr holds the first error raised on an engine-scheduled callback
	// (timer firing), where no Execute caller exists to receive it. Sticky;
	// read it with AsyncErr after draining the engine.
	asyncErr error
	// planCacheOff disables plan replay (see NoPlanCacheEnv and
	// SetPlanCache); the default is cache on. Only chargePath reads it.
	planCacheOff bool
	// Plan counts plan-cache activity (compiles, replays, invalidations)
	// for tests and diagnostics.
	Plan PlanCacheStats
}

// AsyncErr returns the first error raised by work the world scheduled on the
// simulation engine (timer deliveries). Runs that drain the engine must check
// it: a failed delivery means the run's accounting is incomplete.
func (w *World) AsyncErr() error { return w.asyncErr }

// setAsyncErr records the first asynchronous failure.
func (w *World) setAsyncErr(err error) {
	if w.asyncErr == nil {
		w.asyncErr = err
	}
}

// NewWorld wraps a host hypervisor with the default cost model. The
// plan replay cache is on unless NVSIM_NOPLANCACHE is set (same
// convention as NVSIM_PARALLEL: "" and "0" mean default behavior).
func NewWorld(host *Hypervisor) *World {
	w := &World{Host: host, Costs: DefaultCosts()}
	if v := os.Getenv(NoPlanCacheEnv); v != "" && v != "0" {
		w.planCacheOff = true
	}
	return w
}

// AttachStageStats installs (or, with nil, detaches) the per-stage latency
// sink the settle point feeds. Both replay-cached and live forwarded exits
// charge their lump to StageForward through the same ExitContext.add call,
// so attaching stage stats never perturbs — and is never perturbed by — the
// plan-cache mode.
func (w *World) AttachStageStats(ss *trace.StageStats) { w.Stages = ss }

// SetPlanCache toggles the plan replay cache, overriding the
// NVSIM_NOPLANCACHE default. Intended for A/B tests; both modes produce
// byte-identical simulation results.
func (w *World) SetPlanCache(on bool) { w.planCacheOff = !on }

// PlanCacheEnabled reports whether forwarded exits and delivery paths replay
// compiled plans.
func (w *World) PlanCacheEnabled() bool { return !w.planCacheOff }

// SetCosts replaces the world's cost model and bumps the machine's cost
// generation so compiled plans (which bake cycle costs in) are
// recompiled. Mutating w.Costs fields directly is reserved for setup before
// the first forwarded exit; any later recalibration must go through here.
func (w *World) SetCosts(c CostModel) {
	w.Costs = c
	w.Host.Machine.CostGen++
}

// SetHostCaps replaces the host hypervisor's capability word and bumps the
// machine's caps generation. Host capabilities (VMCS shadowing in
// particular) shape the forwarding recursion, so any post-setup change must
// invalidate compiled plans.
func (w *World) SetHostCaps(caps vmx.Caps) {
	w.Host.Caps = caps
	w.Host.Machine.CapsGen++
}

// SetProfile installs a calibration profile's cost model and host capability
// word in one step, bumping BOTH the cost and the caps generation. A profile
// swap changes the two inputs compiled plans bake in — per-transition
// cycle charges and the capability-shaped recursion structure (VMCS shadowing
// versus full trips) — so either generation alone would leave a stale plan
// replayable. The nvlint cachegen GenBumps contract pins both bumps.
func (w *World) SetProfile(c CostModel, caps vmx.Caps) {
	w.Costs = c
	w.Host.Caps = caps
	w.Host.Machine.CostGen++
	w.Host.Machine.CapsGen++
}

// stack returns the hypervisor at each level beneath v: stack[0] is the
// host, stack[k] the guest hypervisor at level k, up to v.VM.Level-1.
// The result is cached on the vCPU — the pipeline consults it on every exit —
// and rebuilt when the machine's topology generation moves (VM creation or
// destruction, hypervisor installation, repinning). Callers must not hold
// the slice across topology changes.
func (w *World) stack(v *VCPU) ([]*Hypervisor, error) {
	gen := w.Host.Machine.TopoGen
	if v.stackCache != nil && v.stackGen == gen {
		return v.stackCache, nil
	}
	n := v.VM.Level
	s := make([]*Hypervisor, n) //nvlint:ignore hotalloc cache rebuild, amortized across topology generations
	s[0] = w.Host
	for k := 1; k < n; k++ {
		av, err := v.AncestorAt(k)
		if err != nil {
			return nil, err
		}
		if av.VM.GuestHyp == nil {
			return nil, fmt.Errorf("hyper: VM %s at level %d runs no hypervisor but hosts level %d", av.VM.Name, k, n)
		}
		s[k] = av.VM.GuestHyp
	}
	v.stackCache, v.stackGen = s, gen
	return s, nil
}
