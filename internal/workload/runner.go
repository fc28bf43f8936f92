package workload

import (
	"fmt"

	"repro/internal/apic"
	"repro/internal/hyper"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Runner drives one application profile against one VM configuration. A nil
// VM runs the profile "natively": pure compute, no virtualization events.
type Runner struct {
	W  *hyper.World
	VM *hyper.VM
	// Net and Blk are the VM's I/O devices; Net is required whenever the
	// profile has network activity, Blk whenever it has block activity.
	Net *hyper.AssignedDevice
	Blk *hyper.AssignedDevice
	P   Profile
	// RNG, when non-nil, jitters per-transaction work by a few percent to
	// model run-to-run measurement variation — what makes the paper's
	// artifact methodology (many runs, best average; Appendix A.6)
	// meaningful to reproduce.
	RNG *sim.RNG
	// Stages, when non-nil, is attached to the world for the duration of a
	// Run/RunFor (the previous sink is restored afterwards) and receives the
	// per-stage cycle attribution of every boundary operation the workload
	// drives — the per-workload stage profile nvreport surfaces. Guest
	// compute is charged outside transactions and does not appear here; the
	// stage totals decompose the run's virtualization cycles only.
	Stages *trace.StageStats
}

// OpClass is the operation class a transaction's virtualization cycles are
// attributed to in Result.Breakdown. The set is fixed, so the breakdown is a
// dense array indexed by the class: charging an op on the transaction path
// is one add, with no hashing. Classes are declared in name order, the
// order reports list them in.
type OpClass uint8

const (
	OpClassBlk   OpClass = iota // virtio-blk kick plus its completion IRQ
	OpClassEOI                  // end-of-interrupt write
	OpClassIdle                 // HLT plus the wake that ends it
	OpClassIPI                  // inter-processor interrupt sent
	OpClassKick                 // virtio-net doorbell write
	OpClassRX                   // inbound data arrival
	OpClassTimer                // LAPIC TSC-deadline program
	// NumOpClasses sizes the per-class tables.
	NumOpClasses
)

var opClassNames = [NumOpClasses]string{
	OpClassBlk:   "blk",
	OpClassEOI:   "eoi",
	OpClassIdle:  "idle",
	OpClassIPI:   "ipi",
	OpClassKick:  "kick",
	OpClassRX:    "rx",
	OpClassTimer: "timer",
}

// String returns the class's report name.
func (c OpClass) String() string {
	if c < NumOpClasses {
		return opClassNames[c]
	}
	return "OpClass(?)"
}

// workJitterPermille bounds the ± work variation applied per transaction.
const workJitterPermille = 30

// GuestHZ is the guest kernel's tick rate. The guest is a tickless Linux
// (CONFIG_HZ=250): each timer program a transaction issues writes the next
// tick boundary as the TSC deadline, so in a timed run (RunFor) a vCPU that
// programs timers takes one timer interrupt per tick.
const GuestHZ = 250

// Result summarizes a run.
type Result struct {
	Profile Profile
	// Transactions executed.
	Transactions int
	// TotalCycles across the run (per driving core).
	TotalCycles sim.Cycles
	// CyclesPerTxn is the average cost of a transaction including
	// virtualization events.
	CyclesPerTxn float64
	// Overhead is CyclesPerTxn / native WorkCycles — the quantity the
	// paper's Figures 7, 9 and 10 plot (1.0 = native speed).
	Overhead float64
	// Score is the projected benchmark metric in Profile.Unit.
	Score float64
	// Latency is the per-transaction cost distribution; tail quantiles show
	// the transactions that hit expensive forwarded paths.
	Latency trace.Histogram
	// Breakdown attributes virtualization cycles to the operation class that
	// spent them — the per-mechanism view behind Figure 8.
	Breakdown [NumOpClasses]sim.Cycles
}

// carry implements deterministic fractional op scheduling: an op with rate
// 0.3/txn fires on the transactions where the accumulated rate crosses an
// integer.
type carry struct{ acc float64 }

func (c *carry) take(rate float64) int {
	c.acc += rate
	n := int(c.acc)
	c.acc -= float64(n)
	return n
}

// Run executes n transactions and returns the summary.
func (r *Runner) Run(n int) (Result, error) {
	if n <= 0 {
		return Result{}, fmt.Errorf("workload: need a positive transaction count")
	}
	p := r.P
	res := Result{Profile: p, Transactions: n}

	if r.VM == nil {
		// Native execution: the access mix costs only its (tiny) user/kernel
		// work, already folded into WorkCycles.
		res.TotalCycles = sim.Cycles(n) * p.WorkCycles
		res.CyclesPerTxn = float64(p.WorkCycles)
		res.Overhead = 1.0
		res.Score = p.NativeScore
		return res, nil
	}
	if err := r.validate(); err != nil {
		return Result{}, err
	}
	if r.Stages != nil {
		prev := r.W.Stages
		r.W.AttachStageStats(r.Stages)
		defer r.W.AttachStageStats(prev)
	}

	st := newRunState(r)
	for i := 0; i < n; i++ {
		if _, err := r.transaction(st, i); err != nil {
			return Result{}, err
		}
	}
	return st.finish(n), nil
}

// validate checks that the profile's I/O activity has devices to land on —
// the shared precondition of Run and RunFor.
func (r *Runner) validate() error {
	if (r.P.TxKicks > 0 || r.P.RxBatches > 0) && r.Net == nil {
		return fmt.Errorf("workload %s: profile has network activity but no net device", r.P.Name)
	}
	if r.P.BlkOps > 0 && r.Blk == nil {
		return fmt.Errorf("workload %s: profile has block activity but no blk device", r.P.Name)
	}
	return nil
}

// runState carries the per-run accumulators shared by Run and RunFor.
type runState struct {
	r                                         *Runner
	res                                       Result
	total                                     sim.Cycles
	kicks, rx, timers, ipis, idles, eois, blk carry
}

func newRunState(r *Runner) *runState {
	st := &runState{r: r}
	st.res.Profile = r.P
	return st
}

func (st *runState) finish(n int) Result {
	st.res.Transactions = n
	st.res.TotalCycles = st.total
	st.res.CyclesPerTxn = float64(st.total) / float64(n)
	st.res.Overhead = st.res.CyclesPerTxn / float64(st.r.P.WorkCycles)
	if st.r.P.HigherIsBetter {
		st.res.Score = st.r.P.NativeScore / st.res.Overhead
	} else {
		st.res.Score = st.r.P.NativeScore * st.res.Overhead
	}
	return st.res
}

// transaction executes one transaction and returns its cost.
func (r *Runner) transaction(st *runState, i int) (sim.Cycles, error) {
	p := &r.P
	res := &st.res
	kicks, rx, timers, ipis, idles, eois, blk := &st.kicks, &st.rx, &st.timers, &st.ipis, &st.idles, &st.eois, &st.blk
	vcpus := r.VM.VCPUs
	total := st.total
	{
		txnStart := total
		driving := p.Cores
		if driving > len(vcpus) {
			driving = len(vcpus)
		}
		v := vcpus[i%driving]
		// The vCPU accepts its highest deliverable interrupt before running
		// the transaction; the profile's EOI writes below retire it.
		v.LAPIC.Ack()
		work := p.WorkCycles
		if r.RNG != nil {
			span := work * workJitterPermille / 1000
			work = work - span + r.RNG.Cyclesn(2*span+1)
		}
		total += work
		r.W.Host.Machine.Stats.ChargeGuest(work)

		for k := kicks.take(p.TxKicks); k > 0; k-- {
			c, err := r.W.Execute(v, hyper.DevNotify(r.Net.Doorbell))
			if err != nil {
				return 0, err
			}
			total += c
			res.Breakdown[OpClassKick] += c
		}
		for k := rx.take(p.RxBatches); k > 0; k-- {
			c, err := r.W.DeviceRX(r.Net, v)
			if err != nil {
				return 0, err
			}
			total += c
			res.Breakdown[OpClassRX] += c
		}
		for k := timers.take(p.Timers); k > 0; k-- {
			c, err := r.W.Execute(v, hyper.ProgramTimer(r.nextTick()))
			if err != nil {
				return 0, err
			}
			total += c
			res.Breakdown[OpClassTimer] += c
		}
		for k := ipis.take(p.IPIs); k > 0; k-- {
			dest := uint32((v.ID + 1) % len(vcpus))
			c, err := r.W.Execute(v, hyper.SendIPI(dest, apic.VectorReschedule))
			if err != nil {
				return 0, err
			}
			total += c
			res.Breakdown[OpClassIPI] += c
		}
		for k := idles.take(p.Idles); k > 0; k-- {
			c, err := r.W.Execute(v, hyper.Halt())
			if err != nil {
				return 0, err
			}
			wake, err := r.W.WakeIfIdle(v)
			if err != nil {
				return 0, err
			}
			total += c + wake
			res.Breakdown[OpClassIdle] += c + wake
		}
		for k := eois.take(p.EOIs); k > 0; k-- {
			c, err := r.W.Execute(v, hyper.EOI())
			if err != nil {
				return 0, err
			}
			total += c
			res.Breakdown[OpClassEOI] += c
			// The EOI lowers the processor priority; the vCPU takes the next
			// deliverable interrupt, if any, straight away.
			v.LAPIC.Ack()
		}
		for k := blk.take(p.BlkOps); k > 0; k-- {
			c, err := r.W.Execute(v, hyper.DevNotify(r.Blk.Doorbell))
			if err != nil {
				return 0, err
			}
			irq, err := r.W.DeliverDeviceIRQ(r.Blk, v)
			if err != nil {
				return 0, err
			}
			total += c + irq
			res.Breakdown[OpClassBlk] += c + irq
		}
		res.Latency.Observe(total - txnStart)
		st.total = total
		cpu, err := r.W.Host.Machine.CPU(v.PhysCPU)
		if err != nil {
			return 0, err
		}
		cpu.Busy += total - txnStart
		return total - txnStart, nil
	}
}

// nextTick returns the first guest tick boundary after the current engine
// time, in TSC cycles.
func (r *Runner) nextTick() uint64 {
	m := r.W.Host.Machine
	period := m.ClockHz / GuestHZ
	return (uint64(m.Engine.Now())/period + 1) * period
}

// Utilization reports each physical CPU's busy cycles accumulated by runs on
// this runner's machine, for capacity analysis across configurations.
func (r *Runner) Utilization() map[int]sim.Cycles {
	out := make(map[int]sim.Cycles)
	for _, cpu := range r.W.Host.Machine.CPUs {
		if cpu.Busy > 0 {
			out[cpu.ID] = cpu.Busy
		}
	}
	return out
}

// RunMicro measures one Table 1 microbenchmark on a vCPU, returning the
// average cost in cycles over iters iterations (the paper reports cycles, so
// no throughput conversion is involved).
func RunMicro(w *hyper.World, v *hyper.VCPU, m Micro, net *hyper.AssignedDevice, iters int) (sim.Cycles, error) {
	return RunMicroObserved(w, v, m, net, iters, nil)
}

// RunMicroObserved is RunMicro with per-stage attribution: when ss is
// non-nil it is attached to the world around exactly the measured operations,
// so the stage totals decompose the returned average — SendIPI's
// per-iteration setup halt (whose cost the metric excludes, like Table 1's)
// is executed with the sink detached. The world's previously attached sink
// is restored on return; with ss nil the behavior is RunMicro's, untouched.
func RunMicroObserved(w *hyper.World, v *hyper.VCPU, m Micro, net *hyper.AssignedDevice, iters int, ss *trace.StageStats) (sim.Cycles, error) {
	if iters <= 0 {
		iters = 1
	}
	if ss != nil {
		prev := w.Stages
		defer w.AttachStageStats(prev)
	}
	var total sim.Cycles
	for i := 0; i < iters; i++ {
		if ss != nil {
			// Setup operations (SendIPI's halt of the destination) are not
			// part of the reported metric, so they must not be attributed.
			w.AttachStageStats(nil)
		}
		var op hyper.Op
		switch m {
		case MicroHypercall:
			op = hyper.Hypercall()
		case MicroDevNotify:
			if net == nil {
				return 0, fmt.Errorf("workload: DevNotify microbenchmark needs a net device")
			}
			op = hyper.DevNotify(net.Doorbell)
		case MicroProgramTimer:
			op = hyper.ProgramTimer(uint64(w.Host.Machine.Engine.Now()) + 1_000_000)
		case MicroSendIPI:
			// Table 1: the destination vCPU is idle and must be woken.
			dest := v.VM.VCPUs[(v.ID+1)%len(v.VM.VCPUs)]
			if _, err := w.Execute(dest, hyper.Halt()); err != nil {
				return 0, err
			}
			op = hyper.SendIPI(uint32(dest.ID), apic.VectorReschedule)
		}
		if ss != nil {
			w.AttachStageStats(ss)
		}
		c, err := w.Execute(v, op)
		if err != nil {
			return 0, err
		}
		if m == MicroSendIPI {
			// The halt's own cost is not part of the send+receive metric.
			dest := v.VM.VCPUs[(v.ID+1)%len(v.VM.VCPUs)]
			if dest.Idle {
				return 0, fmt.Errorf("workload: SendIPI did not wake the destination")
			}
		}
		total += c
	}
	return total / sim.Cycles(iters), nil
}

// RunFor drives the workload for a span of *simulated time*: transactions
// execute back to back while the machine's event clock advances with them,
// so hrtimers armed by ProgramTimer operations genuinely fire mid-run and
// deliver their interrupts through the posted or injected paths. Run, by
// contrast, never advances the engine, which suits pure cost measurement;
// RunFor is the mode for experiments about event interleaving.
func (r *Runner) RunFor(duration sim.Cycles) (Result, error) {
	if r.VM == nil {
		return Result{}, fmt.Errorf("workload: RunFor needs a VM (native runs have no event timeline)")
	}
	if err := r.validate(); err != nil {
		return Result{}, err
	}
	if r.Stages != nil {
		prev := r.W.Stages
		r.W.AttachStageStats(r.Stages)
		defer r.W.AttachStageStats(prev)
	}
	eng := r.W.Host.Machine.Engine
	end := eng.Now() + duration
	st := newRunState(r)
	n := 0
	for eng.Now() < end {
		cost, err := r.transaction(st, n)
		if err != nil {
			return Result{}, err
		}
		if cost == 0 {
			cost = 1 // a zero-cost transaction cannot advance time
		}
		n++
		// Advance the timeline past this transaction, firing any events
		// (timer expirations, wakes) that fall inside it.
		eng.RunUntil(eng.Now() + cost)
		// Events fired on engine callbacks have no Execute caller to return
		// an error through; the world parks such failures for its driver.
		if err := r.W.AsyncErr(); err != nil {
			return Result{}, fmt.Errorf("workload %s: async failure mid-run: %w", r.P.Name, err)
		}
	}
	return st.finish(n), nil
}
