package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

func TestProfilesWellFormed(t *testing.T) {
	ps := Profiles()
	if len(ps) != 7 {
		t.Fatalf("expected the 7 Table 2 workloads, got %d", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Name == "" || p.Unit == "" {
			t.Errorf("profile %+v missing identity", p)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		if p.WorkCycles == 0 || p.NativeScore == 0 || p.Cores == 0 {
			t.Errorf("profile %s has zero calibration fields", p.Name)
		}
		if p.HigherIsBetter != (p.Unit != "s") {
			t.Errorf("profile %s: unit %q inconsistent with HigherIsBetter=%v", p.Name, p.Unit, p.HigherIsBetter)
		}
	}
	if _, ok := ProfileByName("Hackbench"); !ok {
		t.Error("ProfileByName failed")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("ProfileByName found a ghost")
	}
}

func TestHackbenchHasNoIO(t *testing.T) {
	p, _ := ProfileByName("Hackbench")
	if p.TxKicks != 0 || p.RxBatches != 0 || p.BlkOps != 0 {
		t.Fatal("Hackbench must not perform device I/O (Figure 7 shows no I/O-model sensitivity)")
	}
}

func TestCarryConvergesToRate(t *testing.T) {
	var c carry
	total := 0
	const n = 10000
	for i := 0; i < n; i++ {
		total += c.take(0.3)
	}
	if total < 2990 || total > 3010 {
		t.Fatalf("carry of rate 0.3 fired %d times over %d txns", total, n)
	}
	var z carry
	for i := 0; i < 100; i++ {
		if z.take(0) != 0 {
			t.Fatal("zero rate fired")
		}
	}
	var whole carry
	if whole.take(2.0) != 2 {
		t.Fatal("integer rate should fire exactly")
	}
}

func buildL2(t testing.TB, dvhFeatures core.Features) (*hyper.World, *hyper.VM, *hyper.AssignedDevice, *hyper.AssignedDevice) {
	t.Helper()
	m := machine.MustNew(machine.Config{Name: "wl", CPUs: 10, MemoryBytes: 64 << 30, Caps: vmx.HardwareCaps})
	host := hyper.NewHost(m, hyper.KVM{})
	w := hyper.NewWorld(host)
	var d *core.DVH
	if dvhFeatures != 0 {
		var err error
		if d, err = core.Enable(w, dvhFeatures); err != nil {
			t.Fatal(err)
		}
	}
	l1, err := host.CreateVM(hyper.VMConfig{Name: "L1", VCPUs: 6, MemBytes: 24 << 30})
	if err != nil {
		t.Fatal(err)
	}
	gh := l1.InstallHypervisor(hyper.KVM{}, "kvm-L1")
	l2, err := gh.CreateVM(hyper.VMConfig{Name: "L2", VCPUs: 4, MemBytes: 12 << 30})
	if err != nil {
		t.Fatal(err)
	}
	var net, blk *hyper.AssignedDevice
	if dvhFeatures != 0 {
		if err := d.ConfigureVM(l2); err != nil {
			t.Fatal(err)
		}
		net, err = d.AttachVirtualPassthrough(l2, hyper.DevNet, "vp-net")
		if err != nil {
			t.Fatal(err)
		}
		blk, err = d.AttachVirtualPassthrough(l2, hyper.DevBlk, "vp-blk")
		if err != nil {
			t.Fatal(err)
		}
	} else {
		if _, err := hyper.AttachParavirt(l1, hyper.DevNet, "net-l1"); err != nil {
			t.Fatal(err)
		}
		if _, err := hyper.AttachParavirt(l1, hyper.DevBlk, "blk-l1"); err != nil {
			t.Fatal(err)
		}
		net, err = hyper.AttachParavirt(l2, hyper.DevNet, "net-l2")
		if err != nil {
			t.Fatal(err)
		}
		blk, err = hyper.AttachParavirt(l2, hyper.DevBlk, "blk-l2")
		if err != nil {
			t.Fatal(err)
		}
	}
	return w, l2, net, blk
}

func TestNativeRunIsUnitOverhead(t *testing.T) {
	p, _ := ProfileByName("Apache")
	r := Runner{P: p}
	res, err := r.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead != 1.0 {
		t.Fatalf("native overhead = %v", res.Overhead)
	}
	if res.Score != p.NativeScore {
		t.Fatalf("native score = %v, want %v", res.Score, p.NativeScore)
	}
}

func TestRunValidation(t *testing.T) {
	w, vm, _, blk := buildL2(t, 0)
	p, _ := ProfileByName("Netperf RR")
	r := Runner{W: w, VM: vm, Blk: blk, P: p} // missing Net
	if _, err := r.Run(10); err == nil {
		t.Fatal("network profile without a net device should fail")
	}
	if _, err := (&Runner{P: p}).Run(0); err == nil {
		t.Fatal("zero transactions accepted")
	}
	pm, _ := ProfileByName("MySQL")
	r2 := Runner{W: w, VM: vm, Net: blk, P: pm} // missing Blk
	if _, err := r2.Run(10); err == nil {
		t.Fatal("block profile without a blk device should fail")
	}
}

func TestNestedOverheadExceedsAndDVHRecovers(t *testing.T) {
	for _, p := range Profiles() {
		wPar, vmPar, netPar, blkPar := buildL2(t, 0)
		par, err := (&Runner{W: wPar, VM: vmPar, Net: netPar, Blk: blkPar, P: p}).Run(600)
		if err != nil {
			t.Fatalf("%s paravirt: %v", p.Name, err)
		}
		wD, vmD, netD, blkD := buildL2(t, core.FeaturesAll)
		dvh, err := (&Runner{W: wD, VM: vmD, Net: netD, Blk: blkD, P: p}).Run(600)
		if err != nil {
			t.Fatalf("%s dvh: %v", p.Name, err)
		}
		if par.Overhead <= 1.0 || dvh.Overhead <= 1.0 {
			t.Errorf("%s: overheads must exceed native: paravirt %.2f, dvh %.2f", p.Name, par.Overhead, dvh.Overhead)
		}
		if dvh.Overhead >= par.Overhead {
			t.Errorf("%s: DVH (%.2f) must beat nested paravirtual (%.2f)", p.Name, dvh.Overhead, par.Overhead)
		}
		if dvh.Overhead > 2.0 {
			t.Errorf("%s: DVH overhead %.2f; the paper's headline is near-native nested execution", p.Name, dvh.Overhead)
		}
		if p.HigherIsBetter && dvh.Score <= par.Score {
			t.Errorf("%s: DVH score %.0f should exceed paravirt %.0f", p.Name, dvh.Score, par.Score)
		}
		if !p.HigherIsBetter && dvh.Score >= par.Score {
			t.Errorf("%s: DVH time %.2f should undercut paravirt %.2f", p.Name, dvh.Score, par.Score)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	p, _ := ProfileByName("Memcached")
	w1, vm1, n1, b1 := buildL2(t, 0)
	a, err := (&Runner{W: w1, VM: vm1, Net: n1, Blk: b1, P: p}).Run(500)
	if err != nil {
		t.Fatal(err)
	}
	w2, vm2, n2, b2 := buildL2(t, 0)
	b, err := (&Runner{W: w2, VM: vm2, Net: n2, Blk: b2, P: p}).Run(500)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != b.TotalCycles {
		t.Fatalf("identical runs diverged: %v vs %v", a.TotalCycles, b.TotalCycles)
	}
}

func TestMicroMatchesDirectExecution(t *testing.T) {
	w, vm, net, _ := buildL2(t, 0)
	got, err := RunMicro(w, vm.VCPUs[0], MicroHypercall, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := w.Execute(vm.VCPUs[0], hyper.Hypercall())
	if err != nil {
		t.Fatal(err)
	}
	if got != direct {
		t.Fatalf("micro average %v != direct cost %v", got, direct)
	}
	if _, err := RunMicro(w, vm.VCPUs[0], MicroDevNotify, nil, 1); err == nil {
		t.Fatal("DevNotify micro without device should fail")
	}
	if _, err := RunMicro(w, vm.VCPUs[0], MicroDevNotify, net, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := RunMicro(w, vm.VCPUs[0], MicroSendIPI, nil, 4); err != nil {
		t.Fatal(err)
	}
}

func TestMicroNames(t *testing.T) {
	want := []string{"Hypercall", "DevNotify", "ProgramTimer", "SendIPI"}
	for i, m := range Micros() {
		if m.String() != want[i] {
			t.Errorf("micro %d = %q, want %q", i, m, want[i])
		}
	}
}

func TestLatencyHistogramAndBreakdown(t *testing.T) {
	w, vm, net, blk := buildL2(t, 0)
	p, _ := ProfileByName("Netperf RR")
	res, err := (&Runner{W: w, VM: vm, Net: net, Blk: blk, P: p}).Run(400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count() != 400 {
		t.Fatalf("latency samples = %d", res.Latency.Count())
	}
	// Every RR transaction does at least one forwarded kick, so the fastest
	// transaction still exceeds the native work.
	if res.Latency.Min() < p.WorkCycles {
		t.Fatalf("min latency %v below native work %v", res.Latency.Min(), p.WorkCycles)
	}
	// Tail transactions stack several forwarded ops: the distribution has
	// real spread even if log2 buckets merge nearby quantiles.
	if res.Latency.Quantile(0.99) < res.Latency.Quantile(0.5) {
		t.Fatal("quantiles not monotone")
	}
	if res.Latency.Max() <= res.Latency.Min() {
		t.Fatal("fractional ops should spread per-transaction latency")
	}
	// Breakdown accounts all non-compute cycles.
	var attributed sim.Cycles
	for _, c := range res.Breakdown {
		attributed += c
	}
	virt := res.TotalCycles - sim.Cycles(res.Transactions)*p.WorkCycles
	if attributed != virt {
		t.Fatalf("breakdown sums to %v, virtualization cycles are %v", attributed, virt)
	}
	for _, c := range []OpClass{OpClassKick, OpClassRX, OpClassTimer, OpClassIdle, OpClassEOI} {
		if res.Breakdown[c] == 0 {
			t.Errorf("breakdown missing %v cycles", c)
		}
	}
	if res.Breakdown[OpClassIPI] != 0 {
		t.Error("RR profile sends no IPIs; breakdown disagrees")
	}
}

func TestJitterSeededDeterminism(t *testing.T) {
	p, _ := ProfileByName("Memcached")
	run := func(seed uint64) Result {
		w, vm, net, blk := buildL2(t, 0)
		res, err := (&Runner{W: w, VM: vm, Net: net, Blk: blk, P: p, RNG: sim.NewRNG(seed)}).Run(300)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(1), run(1), run(2)
	if a.TotalCycles != b.TotalCycles {
		t.Fatal("same seed diverged")
	}
	if a.TotalCycles == c.TotalCycles {
		t.Fatal("different seeds produced identical totals")
	}
	// Jitter is bounded: a few percent around the unjittered run.
	w, vm, net, blk := buildL2(t, 0)
	base, err := (&Runner{W: w, VM: vm, Net: net, Blk: blk, P: p}).Run(300)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(a.TotalCycles) / float64(base.TotalCycles)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("jittered/unjittered = %.3f, want within a few percent", ratio)
	}
}

func TestRunForAdvancesTimeAndFiresTimers(t *testing.T) {
	// Every timer program writes the next guest tick boundary, so at L2 with
	// DVH each vCPU that programs timers takes exactly one direct timer
	// interrupt per tick boundary the run crosses, and accepting interrupts
	// (with the profile's EOIs retiring them) leaves none to coalesce.
	// timerVCPUs counts the driven vCPUs that program timers at all:
	// Hackbench's 0.5/txn rate lands on every other transaction of the
	// round-robin over its 4 vCPUs, so only vCPUs 1 and 3 program.
	cases := []struct {
		profile    string
		timerVCPUs uint64
	}{
		{"Netperf RR", 1},
		{"Netperf STREAM", 1},
		{"Netperf MAERTS", 1},
		{"Apache", 4},
		{"Memcached", 4},
		{"MySQL", 4},
		{"Hackbench", 2},
	}
	const span = 50_000_000 // ~23ms of simulated time
	for _, tc := range cases {
		w, vm, net, blk := buildL2(t, core.FeaturesAll)
		m := w.Host.Machine
		start := m.Engine.Now()
		p, _ := ProfileByName(tc.profile)
		res, err := (&Runner{W: w, VM: vm, Net: net, Blk: blk, P: p}).RunFor(span)
		if err != nil {
			t.Fatal(err)
		}
		end := m.Engine.Now()
		if end < start+span {
			t.Fatalf("%s: engine advanced only to %v", tc.profile, end)
		}
		if res.Transactions == 0 {
			t.Fatalf("%s: no transactions completed", tc.profile)
		}
		period := m.ClockHz / GuestHZ
		ticks := uint64(end)/period - uint64(start)/period
		if got, want := m.Stats.Count(trace.CounterDVHVTimerDirectDeliveries), ticks*tc.timerVCPUs; got != want {
			t.Errorf("%s: %d direct timer deliveries, want %d (%d tick boundaries x %d vCPUs)", tc.profile, got, want, ticks, tc.timerVCPUs)
		}
		if got := m.Stats.Count(trace.CounterTimerCoalesced); got != 0 {
			t.Errorf("%s: %d timer expiries coalesced into an unaccepted vector, want 0", tc.profile, got)
		}
		// Throughput consistency: transactions * cycles/txn ≈ span.
		approx := res.CyclesPerTxn * float64(res.Transactions)
		if approx < 0.9*span || approx > 1.1*float64(span)+res.CyclesPerTxn {
			t.Fatalf("%s: accounted cycles %.0f inconsistent with span %d", tc.profile, approx, span)
		}
	}
}

func TestRunForValidation(t *testing.T) {
	p, _ := ProfileByName("Hackbench")
	if _, err := (&Runner{P: p}).RunFor(1000); err == nil {
		t.Fatal("native RunFor accepted")
	}
	w, vm, _, blk := buildL2(t, 0)
	pr, _ := ProfileByName("Netperf RR")
	if _, err := (&Runner{W: w, VM: vm, P: pr}).RunFor(1000); err == nil {
		t.Fatal("RunFor without net device accepted")
	}
	pm, _ := ProfileByName("MySQL")
	if _, err := (&Runner{W: w, VM: vm, Net: blk, P: pm}).RunFor(1000); err == nil {
		t.Fatal("RunFor without blk device accepted")
	}
}

func TestPhysicalCPUUtilizationAccounted(t *testing.T) {
	w, vm, net, blk := buildL2(t, 0)
	p, _ := ProfileByName("Apache") // 4 driving cores
	r := &Runner{W: w, VM: vm, Net: net, Blk: blk, P: p}
	res, err := r.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	util := r.Utilization()
	if len(util) != 4 {
		t.Fatalf("busy CPUs = %d, want the 4 driving cores", len(util))
	}
	var sum sim.Cycles
	for _, c := range util {
		sum += c
	}
	if sum != res.TotalCycles {
		t.Fatalf("per-CPU busy %v != run total %v", sum, res.TotalCycles)
	}
}

// TestOpClassNames guards the op-class name table reports print: every class
// has a unique, non-empty name.
func TestOpClassNames(t *testing.T) {
	seen := map[string]OpClass{}
	for c := OpClass(0); c < NumOpClasses; c++ {
		name := c.String()
		if name == "" {
			t.Errorf("op class %d has no name", c)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("op classes %d and %d share the name %q", prev, c, name)
		}
		seen[name] = c
	}
}
