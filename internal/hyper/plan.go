package hyper

import (
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

// This file is the plan replay cache. Every cached charge tree of the engine
// — a forwarded exit's exit-multiplication recursion (paper Figure 1a), an
// interrupt injection, the DeviceRX virtio cascade, the wake ladder and the
// guest scheduler's context switch — is a *pure* function of a small key:
// the plan kind, the exit reason, the level, the script run there, the
// personalities of the hypervisor stack up to that level, the host
// capability word and the cost model. The simulator walks each tree once,
// flattens the walk into an immutable plan, and replays the plan on every
// later identical call in O(levels) with zero recursion and zero
// allocations. Only the charge tree is cached; side effects (timer arming,
// IPI posting, EPT fills, LAPIC delivery, the Idle flip, VMCS clear/load)
// stay live in the callers.
//
// Correctness rests on one structural property: every tree is written
// exactly once, in walk, parameterized by a walkSink. The live sink (*World)
// charges the stats tables and trace recorder directly — that is the
// NVSIM_NOPLANCACHE reference path. The compiling sink (*planBuilder)
// aggregates the same emissions into a plan. Replaying a plan therefore
// cannot diverge from recomputing it: both are projections of the same walk,
// and the A/B tests pin them together.

// planKind names one cached charge-tree shape.
type planKind int

const (
	// kindForward is a forwarded exit: reflect through the intermediate
	// levels, then run the owner's handler script (stageForward).
	kindForward planKind = iota
	// kindInject is an interrupt injection: a hardware exit into the
	// hypervisor at the target level running its injection script there.
	kindInject
	// kindCascade is the DeviceRX receive cascade: the host vhost backend
	// plus every interposing level's backend up to the provider level.
	kindCascade
	// kindWake is wakeIfIdle's wake ladder up to the idle-owner level. The
	// no-wake case never reaches the cache, so "a wake happened" is part of
	// the key by construction.
	kindWake
	// kindSwitch is the guest scheduler's context-switch charge at the
	// switching level.
	kindSwitch
)

// numDeliveryKinds counts the kinds after kindForward; each gets one row of
// the plan table. Declared as an int so it is not a member of the enum.
const numDeliveryKinds = int(kindSwitch)

// minLevel is the lowest level whose plans the kind caches. Forwarded exits,
// injections and switches always run at a guest hypervisor (level >= 1); a
// cascade or wake ladder may stop at the host. Levels outside
// [minLevel, trace.MaxLevels) walk live without caching.
func (k planKind) minLevel() int {
	if k == kindCascade || k == kindWake {
		return 0
	}
	return 1
}

// row is the plan-table row a (kind, reason) pair lives in: one row per exit
// reason for forwarded exits, one row per delivery kind after them — so a
// forwarded HLT plan and a wake plan at the same level never share a slot.
func (k planKind) row(reason vmx.ExitReason) int {
	if k == kindForward {
		return reason.Index()
	}
	return vmx.NumReasonIndexes + int(k) - 1
}

// walkSink receives every emission of a charge-tree walk: cycle charges per
// hypervisor level, hardware- and handled-exit counts, and the ordered trace
// events. Implementations: *World (live, charges the stats sink and trace
// recorder) and *planBuilder (aggregates into a plan).
type walkSink interface {
	chargeLevel(level int, c sim.Cycles)
	hardwareExit(r vmx.ExitReason)
	handledExit(r vmx.ExitReason, level int)
	// traceEvent reports one hardware exit on the timeline; n identical
	// consecutive events may be reported as one call with n > 1.
	traceEvent(r vmx.ExitReason, from, handler, n int)
}

// chargeLevel implements walkSink live: charges go straight to the stats
// tables.
func (w *World) chargeLevel(level int, c sim.Cycles) {
	w.Host.Machine.Stats.ChargeLevel(level, c)
}

// hardwareExit implements walkSink live.
func (w *World) hardwareExit(r vmx.ExitReason) {
	w.Host.Machine.Stats.RecordHardwareExit(r)
}

// handledExit implements walkSink live.
func (w *World) handledExit(r vmx.ExitReason, level int) {
	w.Host.Machine.Stats.RecordHandledExit(r, level)
}

// traceEvent implements walkSink live (RecordRun on a nil recorder is a
// no-op, and with n == 1 it is exactly Record).
func (w *World) traceEvent(r vmx.ExitReason, from, handler, n int) {
	w.Tracer.RecordRun(r, from, handler, n)
}

// walk is the one dispatcher over every cached charge tree: it emits the
// tree of a kind into the sink and returns its total cycles. stack may be
// nil for trees that never read it (kindWake, and kindCascade below level 1).
// Forwarded exits pass no script: the owner's HandlerScript is a function of
// the exit reason and the owner's personality, both already in the key.
func (w *World) walk(kind planKind, stack []*Hypervisor, reason vmx.ExitReason, level int, s Script, sink walkSink) sim.Cycles {
	switch kind {
	case kindForward:
		return w.reflectCost(stack, 0, level, stack[level].Personality.HandlerScript(reason), sink)
	case kindInject:
		return w.guestPathCost(stack, reason, level, s, sink)
	case kindCascade:
		return w.rxCascadeCost(stack, level, sink)
	case kindWake:
		return w.wakeLadderCost(level, sink)
	case kindSwitch:
		return w.scriptCost(stack, level, s, sink)
	}
	return 0
}

// reflectCost is the body every exit into a guest hypervisor shares: the
// host takes the exit (exit cycles; zero for a forwarded exit, whose
// hardware exit dispatch already charged), reflects it into L1,
// intermediate levels re-reflect toward the handling level, and the handler
// there runs script s — every privileged instruction of which recurses
// through privOpCost. Owner side effects are explicitly NOT part of this
// tree (see ownerEffects).
func (w *World) reflectCost(stack []*Hypervisor, exit sim.Cycles, level int, s Script, sink walkSink) sim.Cycles {
	c := &w.Costs
	cost := exit + c.ReflectWork + c.HwEntry
	sink.chargeLevel(0, cost)
	for j := 1; j < level; j++ {
		cost += w.scriptCost(stack, j, stack[j].Personality.ReflectScript(), sink)
	}
	return cost + w.scriptCost(stack, level, s, sink)
}

// guestPathCost charges a hardware exit from level+1 into the hypervisor at
// level that runs script s there, without any owner side effects — the
// building block for injection and receive-path interposition. It is
// reflectCost behind the exit's own hardware-exit, handled-exit and
// trace-event prefix.
func (w *World) guestPathCost(stack []*Hypervisor, reason vmx.ExitReason, level int, s Script, sink walkSink) sim.Cycles {
	sink.hardwareExit(reason)
	sink.handledExit(reason, level)
	sink.traceEvent(reason, level+1, level, 1)
	return w.reflectCost(stack, w.Costs.HwExit, level, s, sink)
}

// scriptCost charges the cost of a hypervisor code path executed at the given
// level. At level 1 with VMCS shadowing, VMREAD/VMWRITEs are satisfied in
// hardware; at deeper levels every one of them is a trapped instruction
// whose emulation recurses — the exit-multiplication engine.
func (w *World) scriptCost(stack []*Hypervisor, level int, s Script, sink walkSink) sim.Cycles {
	c := &w.Costs
	var cost sim.Cycles

	if level == 0 {
		cost = sim.Cycles(s.VMAccesses)*c.NativeVMAccess + sim.Cycles(s.PrivOps)*c.PrivEmulWork + s.SoftWork
		if s.Resume {
			cost += c.ResumeMergeWork + c.HwEntry
		}
		sink.chargeLevel(0, cost)
		return cost
	}

	if s.VMAccesses > 0 {
		if level == 1 && w.Host.Caps.Has(vmx.CapVMCSShadowing) {
			shadow := sim.Cycles(s.VMAccesses) * c.ShadowVMAccess
			cost += shadow
			sink.chargeLevel(level, shadow)
		} else {
			for i := 0; i < s.VMAccesses; i++ {
				cost += w.privOpCost(stack, level, vmx.ExitVMREAD, sink)
			}
		}
	}
	for i := 0; i < s.PrivOps; i++ {
		cost += w.privOpCost(stack, level, vmx.ExitVMPTRLD, sink)
	}
	cost += s.SoftWork
	sink.chargeLevel(level, s.SoftWork)
	if s.Resume {
		cost += w.privOpCost(stack, level, vmx.ExitVMRESUME, sink)
	}
	return cost
}

// privOpCost charges one privileged virtualization instruction executed by
// the hypervisor at the given level. Level-1 instructions are emulated
// directly by the host; deeper ones exit into the level below, whose
// emulation path is itself a script full of privileged instructions.
func (w *World) privOpCost(stack []*Hypervisor, level int, reason vmx.ExitReason, sink walkSink) sim.Cycles {
	c := &w.Costs
	sink.hardwareExit(reason)
	sink.traceEvent(reason, level, level-1, 1)
	if level > 1 {
		// Forward the emulation to the hypervisor one level below.
		handler := level - 1
		sink.handledExit(reason, handler)
		return w.reflectCost(stack, c.HwExit, handler, stack[handler].Personality.EmulScript(reason), sink)
	}
	sink.handledExit(reason, 0)
	work := c.PrivEmulWork
	if reason == vmx.ExitVMRESUME || reason == vmx.ExitVMLAUNCH {
		work += c.ResumeMergeWork
	}
	cost := c.HwExit + c.HostDispatch + work + c.HwEntry
	sink.chargeLevel(0, cost)
	return cost
}

// reasonCount is one aggregated hardware-exit delta of a plan.
type reasonCount struct {
	reason vmx.ExitReason
	n      uint64
}

// handledCount is one aggregated handled-exit delta of a plan.
type handledCount struct {
	reason vmx.ExitReason
	level  int
	n      uint64
}

// eventRun is one run-length-encoded span of the plan's trace timeline.
type eventRun struct {
	reason        vmx.ExitReason
	from, handler int
	n             int
}

// plan is the compiled, immutable replay form of one charge tree. Replaying
// it applies exactly the stats deltas and trace events the walk would emit,
// in O(levels + deltas + runs) with zero allocations, and returns the
// identical total cost.
type plan struct {
	// cost is the total cycles of the tree.
	cost sim.Cycles
	// levels holds the per-level ChargeLevel deltas, pre-clamped to the
	// stats tables' level range.
	levels [trace.MaxLevels]sim.Cycles
	// hw and handled are the aggregated exit-count deltas, ordered by
	// (reason index) and (reason index, level) for deterministic replay.
	hw      []reasonCount
	handled []handledCount
	// events is the ordered, run-length-encoded trace timeline.
	events []eventRun
	// owner and pers pin the plan to the hypervisor-stack personality shape
	// it was compiled against: pers[k] is stack[k].Personality for
	// k in [1, owner]. Personalities are value identities (stateless,
	// comparable), so an in-place personality swap — even one that dodges
	// the topology generation — misses the cache instead of replaying a
	// stale tree. Plans compiled without a stack pin nothing.
	owner int
	pers  [trace.MaxLevels]Personality
	// reason and script are the per-call key components the table slot
	// does not already encode. Scripts are small comparable values, so the
	// equality check is an exact script-identity guard: a caller passing a
	// different script misses the slot and recompiles.
	reason vmx.ExitReason
	script Script
}

// matchesStack reports whether the plan was compiled against the same
// personalities the stack currently runs.
func (p *plan) matchesStack(stack []*Hypervisor) bool {
	for k := 1; k <= p.owner && k < trace.MaxLevels; k++ {
		if p.pers[k] != stack[k].Personality {
			return false
		}
	}
	return true
}

// planBuilder is the compiling walkSink: it aggregates a walk's emissions
// into a plan. Dense scratch tables keep aggregation O(1) per emission;
// finalize compacts them into the plan's sparse, index-ordered delta lists.
type planBuilder struct {
	plan    plan
	hw      [vmx.NumReasonIndexes]uint64
	handled [vmx.NumReasonIndexes][trace.MaxLevels]uint64
}

// chargeLevel implements walkSink, clamping exactly as the stats tables do
// so a replayed charge lands on the same row a live charge would.
func (b *planBuilder) chargeLevel(level int, c sim.Cycles) {
	if level < 0 {
		level = 0
	}
	if level >= trace.MaxLevels {
		level = trace.MaxLevels - 1
	}
	b.plan.levels[level] += c
}

// hardwareExit implements walkSink.
func (b *planBuilder) hardwareExit(r vmx.ExitReason) { b.hw[r.Index()]++ }

// handledExit implements walkSink, with RecordHandledExit's clamping.
func (b *planBuilder) handledExit(r vmx.ExitReason, level int) {
	if level < 0 {
		level = 0
	}
	if level >= trace.MaxLevels {
		level = trace.MaxLevels - 1
	}
	b.handled[r.Index()][level]++
}

// traceEvent implements walkSink: consecutive identical events collapse
// into one run, preserving the exact event order of the walk.
func (b *planBuilder) traceEvent(r vmx.ExitReason, from, handler, n int) {
	evs := b.plan.events
	if last := len(evs) - 1; last >= 0 &&
		evs[last].reason == r && evs[last].from == from && evs[last].handler == handler {
		evs[last].n += n
		return
	}
	// The builder runs only on the cold compile path (compilePlan is
	// //nvlint:cold); it reaches the hot call graph solely through CHA over
	// the walkSink interface.
	//nvlint:ignore hotalloc cold compile path; hot-reachable only via CHA over walkSink
	b.plan.events = append(evs, eventRun{reason: r, from: from, handler: handler, n: n})
}

// finalize compacts the dense scratch tables into the plan's sparse delta
// lists, in fixed (reason index, level) order for deterministic replay.
func (b *planBuilder) finalize() *plan {
	for i := range b.hw {
		if b.hw[i] > 0 {
			b.plan.hw = append(b.plan.hw, reasonCount{reason: vmx.ExitReason(i), n: b.hw[i]})
		}
	}
	for i := range b.handled {
		for l := 0; l < trace.MaxLevels; l++ {
			if b.handled[i][l] > 0 {
				b.plan.handled = append(b.plan.handled, handledCount{reason: vmx.ExitReason(i), level: l, n: b.handled[i][l]})
			}
		}
	}
	return &b.plan
}

// chargePath charges one cached charge tree and returns its cycles — the
// single place that chooses between the plan cache and the live walk.
// NVSIM_NOPLANCACHE, and any level outside the kind's cached range, walk
// live; otherwise the call replays the compiled plan, compiling it on a
// miss. Forwarded exits count in Plan.Compiles/Replays, every other kind in
// Plan.DeliveryCompiles/DeliveryReplays.
func (w *World) chargePath(v *VCPU, stack []*Hypervisor, kind planKind, reason vmx.ExitReason, level int, s Script) sim.Cycles {
	if w.planCacheOff || level < kind.minLevel() || level >= trace.MaxLevels {
		return w.walk(kind, stack, reason, level, s, w)
	}
	p := w.planFor(v, stack, kind, reason, level, s)
	if kind == kindForward {
		w.Plan.Replays++
	} else {
		w.Plan.DeliveryReplays++
	}
	return w.applyPlan(p)
}

// compilePlan walks one charge tree with the compiling sink and flattens it
// into an immutable replay plan. This is the cold path: it runs once per
// (kind, reason, level, script, stack shape, caps, cost model) and its cost
// is amortized across every replay until an invalidation generation moves.
//
//nvlint:cold
func (w *World) compilePlan(stack []*Hypervisor, kind planKind, reason vmx.ExitReason, level int, s Script) *plan {
	b := &planBuilder{}
	b.plan.cost = w.walk(kind, stack, reason, level, s, b)
	b.plan.reason, b.plan.script = reason, s
	if stack != nil {
		b.plan.owner = level
		for k := 1; k <= level && k < trace.MaxLevels; k++ {
			b.plan.pers[k] = stack[k].Personality
		}
	}
	if kind == kindForward {
		w.Plan.Compiles++
	} else {
		w.Plan.DeliveryCompiles++
	}
	return b.finalize()
}

// applyPlan replays a compiled plan's deltas — the aggregated per-level
// charges, the exit counts, and the run-length-encoded trace timeline — and
// returns the plan's total cost, byte-identical to re-running the walk live.
// Allocation-free: this is the steady-state path of every cached kind.
func (w *World) applyPlan(p *plan) sim.Cycles {
	stats := w.Host.Machine.Stats
	for l := range p.levels {
		if c := p.levels[l]; c != 0 {
			stats.ChargeLevel(l, c)
		}
	}
	for _, d := range p.hw {
		stats.AddHardwareExits(d.reason, d.n)
	}
	for _, d := range p.handled {
		stats.AddHandledExits(d.reason, d.level, d.n)
	}
	if w.Tracer != nil {
		for _, e := range p.events {
			w.Tracer.RecordRun(e.reason, e.from, e.handler, e.n)
		}
	}
	return p.cost
}

// planTable is a vCPU's compiled-plan cache, valid for one (topology,
// cost-model, caps) generation triple — the same per-vCPU generational
// pattern as the hypervisor-stack cache, extended with the two generations
// plans additionally depend on. Rows are planKind.row: one per exit reason
// for forwarded exits, then one per delivery kind; columns are levels.
type planTable struct {
	topoGen, costGen, capsGen uint64
	slots                     [vmx.NumReasonIndexes + numDeliveryKinds][trace.MaxLevels]*plan
}

// planFor returns the compiled plan for one cached call, compiling on the
// first miss, whenever an invalidation generation flushed v's table, and
// whenever a per-call key component — exit reason, script, or a stack
// personality — differs from what the slot was compiled against. The
// generations are topology (Machine.TopoGen — VM creation, hypervisor
// installation, repinning), cost model (Machine.CostGen — World.SetCosts)
// and capabilities (Machine.CapsGen — World.SetHostCaps, DVH enablement).
// The stale check is O(1) and the personality match O(levels); the
// steady-state hit path allocates nothing.
func (w *World) planFor(v *VCPU, stack []*Hypervisor, kind planKind, reason vmx.ExitReason, level int, s Script) *plan {
	m := w.Host.Machine
	t := v.plans
	if t == nil {
		//nvlint:ignore hotalloc lazy per-vCPU plan-table init, amortized across all replays
		t = &planTable{topoGen: m.TopoGen, costGen: m.CostGen, capsGen: m.CapsGen}
		v.plans = t
	} else if t.topoGen != m.TopoGen || t.costGen != m.CostGen || t.capsGen != m.CapsGen {
		t.slots = [vmx.NumReasonIndexes + numDeliveryKinds][trace.MaxLevels]*plan{}
		t.topoGen, t.costGen, t.capsGen = m.TopoGen, m.CostGen, m.CapsGen
		w.Plan.Invalidations++
	}
	slot := &t.slots[kind.row(reason)][level]
	if p := *slot; p != nil && p.reason == reason && p.script == s && p.matchesStack(stack) {
		return p
	}
	*slot = w.compilePlan(stack, kind, reason, level, s)
	return *slot
}
