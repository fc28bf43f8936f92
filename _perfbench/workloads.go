package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/experiment"
	"repro/internal/hyper"
	"repro/internal/mem"
	"repro/internal/migrate"
	"repro/internal/sim"
	"repro/internal/workload"
)

// appTxns is the transactions each Figure 7–10 cell runs (experiment's
// appTxns); paper-sweep counts them for sim_txn_per_s.
const appTxns = 1200

// paperTable3 holds the paper's Table 3 cycles for the derived columns
// (nested, nested+DVH, L3, L3+DVH) of each micro, as EXPERIMENTS.md lists
// them. The VM column is the calibration anchor, so it is not an error term.
var paperTable3 = map[string][4]float64{
	"Hypercall":    {37733, 38743, 857578, 929724},
	"DevNotify":    {48390, 13815, 1008935, 15150},
	"ProgramTimer": {43359, 3247, 1033946, 3304},
	"SendIPI":      {39456, 5116, 787971, 5228},
}

// table3Error is the mean absolute percentage error of the 16 derived
// Table 3 cells against the paper.
func table3Error(rows []experiment.Table3Row) (float64, error) {
	var sum float64
	n := 0
	for _, r := range rows {
		paper, ok := paperTable3[r.Name]
		if !ok {
			continue
		}
		for i, ours := range []sim.Cycles{r.Nested, r.NestedD, r.L3, r.L3D} {
			sum += math.Abs(float64(ours)-paper[i]) / paper[i]
			n++
		}
	}
	if n != 16 {
		return 0, fmt.Errorf("table 3 has %d derived cells with paper values, want 16", n)
	}
	return 100 * sum / float64(n), nil
}

// measureTable3 runs Table 3 for the accuracy figure every workload reports.
func (b *bench) measureTable3() error {
	rows, err := experiment.Table3()
	if err != nil {
		return fmt.Errorf("table 3: %w", err)
	}
	b.table3Err, err = table3Error(rows)
	return err
}

// ---- paper-sweep ----------------------------------------------------------

// paperSweep regenerates Table 3, the delivery storms and Figures 7–10 the
// way `nvbench -all` does, each cell a cold stack on the harness pool, and
// byte-compares every rendering with its committed fixture.
type paperSweep struct {
	goldens map[string]string
}

type sweepCall struct {
	fixture string
	render  func(b *bench) (out string, txns int, err error)
}

func appFigure(title string, fig func() ([]experiment.AppResult, error)) func(*bench) (string, int, error) {
	return func(*bench) (string, int, error) {
		res, err := fig()
		if err != nil {
			return "", 0, err
		}
		return experiment.FormatAppResults(title, res), len(res) * appTxns, nil
	}
}

var sweepCalls = []sweepCall{
	{"table3.golden", func(b *bench) (string, int, error) {
		rows, err := experiment.Table3()
		if err != nil {
			return "", 0, err
		}
		b.table3Err, err = table3Error(rows)
		return experiment.FormatTable3(rows), 0, err
	}},
	{"storms.golden", func(*bench) (string, int, error) {
		rows, err := experiment.DeliveryStorms()
		if err != nil {
			return "", 0, err
		}
		return experiment.FormatStorms(rows), 0, nil
	}},
	{"figure7.golden", appFigure("Figure 7: application performance (2 levels)", experiment.Figure7)},
	{"figure8.golden", appFigure("Figure 8: application performance breakdown", experiment.Figure8)},
	{"figure9.golden", appFigure("Figure 9: application performance in L3 VM", experiment.Figure9)},
	{"figure10.golden", appFigure("Figure 10: application performance, Xen on KVM", experiment.Figure10)},
}

func (w *paperSweep) setup(b *bench) error {
	w.goldens = map[string]string{}
	for _, c := range sweepCalls {
		data, err := os.ReadFile(filepath.Join(b.golden, c.fixture))
		if err != nil {
			return err
		}
		w.goldens[c.fixture] = string(data)
	}
	// One untimed sweep brings the heap to its working size.
	_, err := w.pass(b)
	return err
}

func (w *paperSweep) pass(b *bench) (int, error) {
	txns := 0
	for _, c := range sweepCalls {
		i := b.begin("experiment.figure")
		out, n, err := c.render(b)
		b.end(i)
		if err != nil {
			b.checkErr(err, c.fixture)
			continue
		}
		b.check(out == w.goldens[c.fixture], "%s: output differs from the committed fixture", c.fixture)
		txns += n
	}
	return txns, nil
}

// ---- steady-state ---------------------------------------------------------

// steadySpecs are the nested stacks steady-state keeps warm; each runs every
// Table 2 mix.
var steadySpecs = []experiment.Spec{
	{Depth: 2, IO: experiment.IOParavirt},
	{Depth: 2, IO: experiment.IODVH},
	{Depth: 3, IO: experiment.IOParavirt},
	{Depth: 3, IO: experiment.IODVH},
	{Depth: 2, IO: experiment.IODVHVP},
}

const (
	// chunkSpan is the simulated time one RunFor chunk covers: 10 ms at
	// 2.2 GHz, long enough for the transactions' timers to fire mid-chunk.
	chunkSpan = sim.Cycles(22_000_000)
	// prefixChunks is the warm-up every timeline replays against its
	// uncached twin in set-up.
	prefixChunks = 3
	// roundsPerPass sizes one timed pass: each round runs one chunk on
	// every timeline.
	roundsPerPass = 50
)

// steadyState drives warm nested stacks with repeated RunFor chunks: plan
// replay, the exit pipeline, the workload runner, the stats sinks and the
// event engine do the work; nothing is built in the timed section.
type steadyState struct {
	timelines []*workload.Runner
	passes    int
}

func (w *steadyState) setup(b *bench) error {
	if err := b.measureTable3(); err != nil {
		return err
	}
	w.timelines, w.passes = nil, 0
	seeds := sim.NewRNG(b.seed)
	for _, spec := range steadySpecs {
		for _, p := range workload.Profiles() {
			seed := seeds.Uint64()
			st, err := b.build(spec)
			if err != nil {
				return err
			}
			twin, err := b.build(spec)
			if err != nil {
				return err
			}
			twin.World.SetPlanCache(false)
			r := runnerFor(st, p, sim.NewRNG(seed))
			live := runnerFor(twin, p, sim.NewRNG(seed))
			what := fmt.Sprintf("%v L%d %s prefix", spec.IO, spec.Depth, p.Name)
			// The cached timeline's warm-up doubles as the A/B check: its
			// prefix must match the uncached reference exactly.
			for k := 0; k < prefixChunks; k++ {
				got, err := r.RunFor(chunkSpan)
				if err != nil {
					b.checkErr(err, what)
					continue
				}
				want, err := live.RunFor(chunkSpan)
				if err != nil {
					b.checkErr(err, what+" (uncached)")
					continue
				}
				b.check(got.TotalCycles == want.TotalCycles && got.Transactions == want.Transactions,
					"%s chunk %d: cached %d cycles/%d txns, uncached %d/%d", what, k,
					got.TotalCycles, got.Transactions, want.TotalCycles, want.Transactions)
			}
			b.check(st.Machine.Stats.String() == twin.Machine.Stats.String(), "%s: stats differ from the uncached twin", what)
			w.timelines = append(w.timelines, r)
		}
	}
	return nil
}

func runnerFor(st *experiment.Stack, p workload.Profile, rng *sim.RNG) *workload.Runner {
	return &workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p, RNG: rng}
}

func (w *steadyState) pass(b *bench) (int, error) {
	w.passes++
	first := w.passes == 1
	var before []timelineCounts
	if first {
		before = w.counts()
	}
	txns := 0
	for round := 0; round < roundsPerPass; round++ {
		for _, r := range w.timelines {
			i := b.begin("workload.runfor")
			res, err := r.RunFor(chunkSpan)
			b.end(i)
			if err != nil || res.Transactions == 0 {
				b.check(false, "%s RunFor: %v (%d txns)", r.P.Name, err, res.Transactions)
			} else {
				b.check(true, "")
			}
			txns += res.Transactions
		}
	}
	if first {
		w.recordCounts(b, before, w.counts(), txns)
	}
	return txns, nil
}

// timelineCounts is the public simulator state steady-state reads per
// timeline: plan-cache activity, exits and the engine clock.
type timelineCounts struct {
	plan        hyper.PlanCacheStats
	hw, handled uint64
	now         sim.Time
}

func (w *steadyState) counts() []timelineCounts {
	out := make([]timelineCounts, len(w.timelines))
	for i, r := range w.timelines {
		s := r.W.Host.Machine.Stats
		out[i] = timelineCounts{r.W.Plan, s.TotalHardwareExits(), s.TotalHandledExits(), r.W.Host.Machine.Engine.Now()}
	}
	return out
}

// recordCounts stores the first pass's count deltas, summed over timelines.
func (w *steadyState) recordCounts(b *bench, before, after []timelineCounts, txns int) {
	var d timelineCounts
	for i := range after {
		a, p := after[i], before[i]
		d.plan.Compiles += a.plan.Compiles - p.plan.Compiles
		d.plan.Replays += a.plan.Replays - p.plan.Replays
		d.plan.DeliveryCompiles += a.plan.DeliveryCompiles - p.plan.DeliveryCompiles
		d.plan.DeliveryReplays += a.plan.DeliveryReplays - p.plan.DeliveryReplays
		d.plan.Invalidations += a.plan.Invalidations - p.plan.Invalidations
		d.hw += a.hw - p.hw
		d.handled += a.handled - p.handled
		d.now += a.now - p.now
	}
	replays := d.plan.Replays + d.plan.DeliveryReplays
	lookups := replays + d.plan.Compiles + d.plan.DeliveryCompiles
	b.counts["plan.compiles"] = float64(d.plan.Compiles)
	b.counts["plan.replays"] = float64(d.plan.Replays)
	b.counts["plan.delivery_compiles"] = float64(d.plan.DeliveryCompiles)
	b.counts["plan.delivery_replays"] = float64(d.plan.DeliveryReplays)
	b.counts["plan.invalidations"] = float64(d.plan.Invalidations)
	b.counts["plan.lookups"] = float64(lookups)
	if lookups > 0 {
		b.counts["plan.replay_ratio"] = float64(replays) / float64(lookups)
	}
	b.counts["hyper.hw_exits"] = float64(d.hw)
	b.counts["hyper.handled_exits"] = float64(d.handled)
	if txns > 0 {
		b.counts["hyper.exits_per_txn"] = float64(d.hw) / float64(txns)
	}
	b.counts["sim.sim_seconds"] = float64(d.now) / sim.DefaultClockHz
}

// ---- migrate --------------------------------------------------------------

const (
	// snapshotPages is how much of the DVH source's memory is written
	// before it is snapshotted: 4 MiB.
	snapshotPages = 1024
	// snapshotBase is the first page written, 4 GiB into guest memory and
	// clear of the device rings.
	snapshotBase = 1 << 20
	// timerLead is how far ahead of the clock the source arms its virtual
	// timer before each snapshot.
	timerLead = 1_000_000
	// resumeProfile is the Table 2 mix the restored guest resumes, for one
	// chunk: Memcached.
	resumeProfile = 4
)

// migrateWorkload runs the paper's migration comparison — four source and
// destination pairs, pre-copy, stop-and-copy, byte-verified destinations —
// and after it a DVH snapshot round trip whose restored vCPU must keep the
// virtual-timer deadline armed on the source and then resume its workload.
type migrateWorkload struct {
	src, dst *experiment.Stack
	passes   int
}

var dvhSpec = experiment.Spec{Depth: 2, IO: experiment.IODVH}

func (w *migrateWorkload) setup(b *bench) error {
	if err := b.measureTable3(); err != nil {
		return err
	}
	w.passes = 0
	var err error
	if w.src, err = b.build(dvhSpec); err != nil {
		return err
	}
	if w.dst, err = b.build(dvhSpec); err != nil {
		return err
	}
	page := make([]byte, mem.PageSize)
	gm := w.src.Target.Memory()
	for p := 0; p < snapshotPages; p++ {
		for i := range page {
			page[i] = byte(p*31 + i)
		}
		if err := gm.Write(mem.PFN(snapshotBase+p).Base(), page); err != nil {
			return err
		}
	}
	return nil
}

func (w *migrateWorkload) pass(b *bench) (int, error) {
	w.passes++
	i := b.begin("experiment.migration")
	rows, err := experiment.Migration()
	b.end(i)
	b.checkErr(err, "migration")
	var pages uint64
	for _, r := range rows {
		b.check(r.Correct, "migration %s: destination differs from the source", r.Config)
		pages += r.PagesSent
	}

	srcEng, dstEng := w.src.Machine.Engine, w.dst.Machine.Engine
	deadline := uint64(dstEng.Now()) + timerLead
	if _, err := w.src.World.Execute(w.src.Target.VCPUs[0], hyper.ProgramTimer(deadline)); err != nil {
		b.checkErr(err, "arm source timer")
		return 0, nil
	}
	i = b.begin("migrate.snapshot")
	blob, err := migrate.Snapshot(w.src.Target, w.src.DVH)
	b.end(i)
	if err != nil {
		b.checkErr(err, "snapshot")
		return 0, nil
	}
	i = b.begin("migrate.restore")
	err = migrate.RestoreSnapshot(w.dst.Target, w.dst.DVH, blob)
	b.end(i)
	if err != nil {
		b.checkErr(err, "restore")
		return 0, nil
	}
	v := w.dst.Target.VCPUs[0]
	b.check(v.LAPIC.TSCDeadline() == deadline, "restored deadline %d, armed %d", v.LAPIC.TSCDeadline(), deadline)
	dstEng.RunUntil(sim.Time(deadline) - 1)
	early := v.LAPIC.Pending(v.LAPIC.TimerVector())
	dstEng.RunUntil(sim.Time(deadline))
	b.check(!early && v.LAPIC.Pending(v.LAPIC.TimerVector()), "restored timer: early=%v, fired=%v", early, v.LAPIC.Pending(v.LAPIC.TimerVector()))

	r := runnerFor(w.dst, workload.Profiles()[resumeProfile], nil)
	res, err := r.RunFor(chunkSpan)
	b.check(err == nil && res.Transactions > 0, "resume on destination: %v", err)

	// Let every timer the resumed workload armed fire, drain the interrupts,
	// and bring the source clock level with the destination's, so the next
	// pass starts from the same shape of state.
	dstEng.RunUntil(dstEng.Now() + 2*timerLead)
	srcEng.RunUntil(dstEng.Now())
	for _, st := range []*experiment.Stack{w.src, w.dst} {
		for _, vc := range st.Target.VCPUs {
			for {
				if _, ok := vc.LAPIC.Ack(); !ok {
					break
				}
				vc.LAPIC.EOI()
			}
		}
	}
	if w.passes == 1 {
		b.counts["migrate.pages_sent"] = float64(pages)
		b.counts["migrate.snapshot_kb"] = float64(len(blob)) / 1024
	}
	return res.Transactions, nil
}
