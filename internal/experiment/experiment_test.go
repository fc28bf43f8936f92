package experiment

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Spec{Depth: 0}); err == nil {
		t.Fatal("depth 0 accepted")
	}
	if _, err := Build(Spec{Depth: 1, IO: IODVH}); err == nil {
		t.Fatal("DVH at depth 1 accepted")
	}
	if _, err := Build(Spec{Depth: 9}); err == nil {
		t.Fatal("absurd depth accepted")
	}
}

func TestBuildShapes(t *testing.T) {
	for _, spec := range []Spec{
		{Depth: 1, IO: IOParavirt},
		{Depth: 1, IO: IOPassthrough},
		{Depth: 2, IO: IOParavirt},
		{Depth: 2, IO: IOPassthrough},
		{Depth: 2, IO: IODVHVP},
		{Depth: 2, IO: IODVH},
		{Depth: 3, IO: IOParavirt},
		{Depth: 3, IO: IODVH},
		{Depth: 2, IO: IOParavirt, Guest: GuestXen},
		{Depth: 2, IO: IODVHVP, Guest: GuestXen},
	} {
		st, err := Build(spec)
		if err != nil {
			t.Fatalf("Build(%+v): %v", spec, err)
		}
		if st.Target.Level != spec.Depth {
			t.Errorf("%+v: target at level %d", spec, st.Target.Level)
		}
		if len(st.Target.VCPUs) != 4 {
			t.Errorf("%+v: innermost VM has %d vCPUs, want 4", spec, len(st.Target.VCPUs))
		}
		if st.Net == nil || st.Blk == nil {
			t.Errorf("%+v: devices missing", spec)
		}
		if spec.Guest == GuestXen && spec.Depth >= 2 {
			if st.VMs[0].GuestHyp.Personality.Name() != "xen" {
				t.Errorf("%+v: guest hypervisor is %s", spec, st.VMs[0].GuestHyp.Personality.Name())
			}
		}
	}
}

// TestBuildAllocationBudget holds one depth-3 DVH stack build under 1 MB of
// allocation. The modeled machine has 96 GiB of RAM and 12-36 GiB per VM
// level; a build stays cheap only while their page
// bitmaps are sparse, so a dense bitmap coming back (about 21 MB per build)
// fails here.
func TestBuildAllocationBudget(t *testing.T) {
	spec := Spec{Depth: 3, IO: IODVH}
	if _, err := Build(spec); err != nil { // warm any lazily built tables
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Build(spec); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 1 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Fatalf("Build(%+v) allocated %.2f MB; budget is %.2f MB", spec, float64(got)/(1<<20), float64(budget)/(1<<20))
	}
}

func TestIOModeString(t *testing.T) {
	for m, want := range map[IOMode]string{
		IOParavirt: "paravirt", IOPassthrough: "passthrough", IODVHVP: "DVH-VP", IODVH: "DVH",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table 3 has %d rows, want 4", len(rows))
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}

	// Exact single-level calibration against the paper's VM column.
	if byName["Hypercall"].VM != 1575 || byName["DevNotify"].VM != 4984 ||
		byName["ProgramTimer"].VM != 2005 || byName["SendIPI"].VM != 3273 {
		t.Errorf("VM column off calibration: %+v", rows)
	}
	for _, r := range rows {
		// Nested costs explode without DVH...
		if float64(r.Nested) < 7*float64(r.VM) {
			t.Errorf("%s: nested %v not order-of-magnitude above VM %v", r.Name, r.Nested, r.VM)
		}
		if float64(r.L3) < 15*float64(r.Nested) {
			t.Errorf("%s: L3 %v should dwarf nested %v", r.Name, r.L3, r.Nested)
		}
		if r.Name == "Hypercall" {
			// ...and hypercalls stay expensive under DVH (Table 3).
			if r.NestedD < r.Nested {
				t.Errorf("Hypercall: DVH %v should not beat plain nested %v", r.NestedD, r.Nested)
			}
			continue
		}
		// DVH collapses nested costs to near single-level, independent of depth.
		if float64(r.NestedD) > 3.2*float64(r.VM) {
			t.Errorf("%s: nested+DVH %v too far above VM %v", r.Name, r.NestedD, r.VM)
		}
		if float64(r.L3D) > 1.25*float64(r.NestedD) {
			t.Errorf("%s: L3+DVH %v should track nested+DVH %v", r.Name, r.L3D, r.NestedD)
		}
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "ProgramTimer") || !strings.Contains(out, "nested+DVH") {
		t.Errorf("formatted table malformed:\n%s", out)
	}
}

func TestFigure7Shape(t *testing.T) {
	res, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 7*6 {
		t.Fatalf("Figure 7 has %d bars, want 42", len(res))
	}
	get := func(w, c string) float64 {
		v, ok := OverheadOf(res, w, c)
		if !ok {
			t.Fatalf("missing bar %s/%s", w, c)
		}
		return v
	}
	for _, w := range []string{"Netperf RR", "Netperf STREAM", "Netperf MAERTS", "Apache", "Memcached", "MySQL", "Hackbench"} {
		vm := get(w, "VM")
		nested := get(w, "Nested VM")
		pt := get(w, "Nested VM+passthrough")
		vp := get(w, "Nested VM+DVH-VP")
		dvh := get(w, "Nested VM+DVH")
		if vm < 1.0 || vm > 2.0 {
			t.Errorf("%s: VM overhead %.2f outside the paper's band", w, vm)
		}
		// Only DVH keeps nested overhead near the VM case.
		if dvh > 1.45*vm && dvh > vm+0.45 {
			t.Errorf("%s: DVH %.2f should approach VM %.2f", w, dvh, vm)
		}
		if w == "Hackbench" {
			// No I/O: the three I/O models tie; DVH still wins via IPIs etc.
			if nested < 1.5 || pt < 1.5 || vp < 1.5 {
				t.Errorf("Hackbench bars should all show nesting overhead: %v %v %v", nested, pt, vp)
			}
			continue
		}
		if nested <= pt {
			t.Errorf("%s: paravirtual (%.2f) should exceed passthrough (%.2f)", w, nested, pt)
		}
		if nested <= vp {
			t.Errorf("%s: paravirtual (%.2f) should exceed DVH-VP (%.2f)", w, nested, vp)
		}
		if dvh >= vp {
			t.Errorf("%s: full DVH (%.2f) should beat DVH-VP (%.2f)", w, dvh, vp)
		}
	}
	// I/O-heavy workloads show the paper's >3x paravirtual penalty.
	for _, w := range []string{"Netperf RR", "Apache", "Memcached"} {
		if get(w, "Nested VM") < 3.0 {
			t.Errorf("%s: nested paravirtual %.2f; paper shows >3x", w, get(w, "Nested VM"))
		}
	}
}

func TestFigure8Monotone(t *testing.T) {
	res, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	order := []string{
		"Nested VM", "Nested VM+DVH-VP", "+posted interrupts",
		"+virtual IPIs", "+virtual timers", "+virtual idle (= DVH)",
	}
	for _, w := range []string{"Netperf RR", "Apache", "Memcached", "MySQL"} {
		prev := 1e9
		for _, c := range order {
			v, ok := OverheadOf(res, w, c)
			if !ok {
				t.Fatalf("missing %s/%s", w, c)
			}
			if v > prev+0.01 {
				t.Errorf("%s: adding techniques must not regress: %s=%.2f after %.2f", w, c, v, prev)
			}
			prev = v
		}
	}
	// Technique attribution matches the paper: virtual IPIs help Apache and
	// Hackbench; virtual timers help Netperf RR; posted interrupts help the
	// receive-heavy MAERTS.
	gain := func(w, before, after string) float64 {
		b, _ := OverheadOf(res, w, before)
		a, _ := OverheadOf(res, w, after)
		return b - a
	}
	if gain("Hackbench", "+posted interrupts", "+virtual IPIs") <= 0 {
		t.Error("virtual IPIs should improve Hackbench")
	}
	if gain("Netperf RR", "+virtual IPIs", "+virtual timers") <= 0 {
		t.Error("virtual timers should improve Netperf RR")
	}
	if gain("Netperf MAERTS", "Nested VM+DVH-VP", "+posted interrupts") <= 0 {
		t.Error("posted interrupts should improve MAERTS")
	}
	if gain("Netperf RR", "+virtual timers", "+virtual idle (= DVH)") <= 0 {
		t.Error("virtual idle should improve Netperf RR")
	}
}

func TestFigure9Shape(t *testing.T) {
	res, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	get := func(w, c string) float64 {
		v, ok := OverheadOf(res, w, c)
		if !ok {
			t.Fatalf("missing %s/%s", w, c)
		}
		return v
	}
	// Paravirtual I/O at L3 is practically unusable (two orders of
	// magnitude for the I/O-heavy workloads)...
	for _, w := range []string{"Netperf RR", "Apache", "Memcached"} {
		if get(w, "L3") < 40 {
			t.Errorf("%s: L3 paravirtual %.1f; paper shows ~two orders of magnitude", w, get(w, "L3"))
		}
	}
	// ...while DVH stays at non-nested overhead even at L3.
	for _, w := range []string{"Netperf RR", "Netperf STREAM", "Netperf MAERTS", "Apache", "Memcached", "MySQL", "Hackbench"} {
		dvh := get(w, "L3+DVH")
		vm := get(w, "VM")
		if dvh > 1.45*vm && dvh > vm+0.45 {
			t.Errorf("%s: L3+DVH %.2f should approach VM %.2f", w, dvh, vm)
		}
		if pt := get(w, "L3+passthrough"); w != "Hackbench" && get(w, "L3") <= pt {
			t.Errorf("%s: L3 paravirtual should exceed L3 passthrough", w)
		}
	}
	// DVH beats even passthrough at L3 by a wide margin (paper: >30x).
	if get("Memcached", "L3+passthrough")/get("Memcached", "L3+DVH") < 5 {
		t.Error("L3 DVH should beat passthrough by a wide factor on Memcached")
	}
}

func TestFigure10Shape(t *testing.T) {
	res, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	get := func(w, c string) float64 {
		v, ok := OverheadOf(res, w, c)
		if !ok {
			t.Fatalf("missing %s/%s", w, c)
		}
		return v
	}
	for _, w := range []string{"Netperf RR", "Apache", "Memcached", "MySQL"} {
		par := get(w, "Nested VM (Xen)")
		pt := get(w, "Nested VM (Xen)+passthrough")
		vp := get(w, "Nested VM (Xen)+DVH-VP")
		if par <= pt {
			t.Errorf("%s: Xen paravirtual (%.2f) should exceed passthrough (%.2f)", w, par, pt)
		}
		if vp >= par {
			t.Errorf("%s: DVH-VP under Xen (%.2f) must improve on paravirtual (%.2f)", w, vp, par)
		}
	}
	if _, ok := OverheadOf(res, "Apache", "Nested VM (Xen)+DVH"); ok {
		t.Error("Figure 10 must not include full DVH: Xen is not DVH-aware")
	}
}

func TestMigrationExperiment(t *testing.T) {
	rows, err := Migration()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("migration experiment has %d rows", len(rows))
	}
	by := map[string]MigrationRow{}
	for _, r := range rows {
		if !r.Correct {
			t.Errorf("%s: destination diverged", r.Config)
		}
		by[r.Config] = r
	}
	vm := by["VM"].TotalTime
	nestedPar := by["Nested VM (paravirt)"].TotalTime
	nestedDVH := by["Nested VM (DVH)"].TotalTime
	stack := by["Nested VM + guest hypervisor"].TotalTime
	// Paper: DVH vs paravirtual migration times roughly the same, and both
	// roughly the same as migrating a VM.
	if ratio := float64(nestedDVH) / float64(nestedPar); ratio < 0.7 || ratio > 1.4 {
		t.Errorf("DVH migration (%v) should track paravirtual (%v)", nestedDVH, nestedPar)
	}
	if ratio := float64(nestedPar) / float64(vm); ratio < 0.7 || ratio > 1.4 {
		t.Errorf("nested migration (%v) should track VM migration (%v)", nestedPar, vm)
	}
	// Migrating the whole stack is roughly twice as expensive.
	if ratio := float64(stack) / float64(nestedDVH); ratio < 1.5 || ratio > 3.0 {
		t.Errorf("whole-stack migration (%v) should be ~2x nested-only (%v)", stack, nestedDVH)
	}
	out := FormatMigration(rows)
	if !strings.Contains(out, "268 Mbps") {
		t.Errorf("migration report malformed:\n%s", out)
	}
}

func TestFormatAppResults(t *testing.T) {
	res := []AppResult{
		{Workload: "Apache", Config: "VM", Overhead: 1.2},
		{Workload: "Apache", Config: "Nested VM", Overhead: 3.4},
	}
	out := FormatAppResults("Figure X", res)
	if !strings.Contains(out, "Apache") || !strings.Contains(out, "3.40") {
		t.Errorf("format output:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Error("missing bars should render as '-'")
	}
	if _, ok := OverheadOf(res, "Apache", "nope"); ok {
		t.Error("OverheadOf found a ghost")
	}
	if ferrets := core.FeaturesAll; !ferrets.Has(core.FeatureVirtualIdle) {
		t.Error("FeaturesAll must include virtual idle")
	}
}

func TestDepthSweep(t *testing.T) {
	rows, err := DepthSweep(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.Forwarded) != 4 || len(r.DVH) != 4 {
			t.Fatalf("%s: missing depths", r.Micro)
		}
		// Forwarded cost multiplies per level.
		for d := 1; d < 4; d++ {
			if float64(r.Forwarded[d]) < 7*float64(r.Forwarded[d-1]) {
				t.Errorf("%s: L%d (%v) not order-of-magnitude above L%d (%v)",
					r.Micro, d+1, r.Forwarded[d], d, r.Forwarded[d-1])
			}
		}
		if r.Micro == "Hypercall" {
			continue
		}
		// DVH cost is flat in depth (within the per-level table/offset cost).
		for d := 2; d < 4; d++ {
			if float64(r.DVH[d]) > 1.25*float64(r.DVH[1]) {
				t.Errorf("%s: DVH at L%d (%v) not flat vs L2 (%v)", r.Micro, d+1, r.DVH[d], r.DVH[1])
			}
		}
	}
	out := FormatDepthSweep(rows)
	if !strings.Contains(out, "L4") {
		t.Errorf("sweep formatting:\n%s", out)
	}
	if _, err := DepthSweep(9); err == nil {
		t.Fatal("absurd depth accepted")
	}
}

func TestBreakdownAttribution(t *testing.T) {
	rows, err := Breakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7*3 {
		t.Fatalf("%d rows", len(rows))
	}
	par, ok := BreakdownOf(rows, "Netperf RR", "Nested VM")
	if !ok {
		t.Fatal("missing paravirt RR row")
	}
	vp, _ := BreakdownOf(rows, "Netperf RR", "Nested VM+DVH-VP")
	dvh, _ := BreakdownOf(rows, "Netperf RR", "Nested VM+DVH")

	kick, timer, idle := workload.OpClassKick, workload.OpClassTimer, workload.OpClassIdle
	// VP removes most of the kick cost; timers stay until virtual timers.
	if vp.PerTxn[kick] >= par.PerTxn[kick]/2 {
		t.Errorf("DVH-VP kick %f should be well below paravirt %f", vp.PerTxn[kick], par.PerTxn[kick])
	}
	if vp.PerTxn[timer] < 0.8*par.PerTxn[timer] {
		t.Errorf("DVH-VP should not improve timers (%f vs %f)", vp.PerTxn[timer], par.PerTxn[timer])
	}
	// Full DVH removes the timer and idle columns too.
	if dvh.PerTxn[timer] >= par.PerTxn[timer]/5 {
		t.Errorf("DVH timer cost %f should collapse vs %f", dvh.PerTxn[timer], par.PerTxn[timer])
	}
	if dvh.PerTxn[idle] >= par.PerTxn[idle]/5 {
		t.Errorf("DVH idle cost %f should collapse vs %f", dvh.PerTxn[idle], par.PerTxn[idle])
	}
	if par.PerTxn == ([workload.NumOpClasses]float64{}) {
		t.Fatal("no op classes attributed")
	}
	out := FormatBreakdown(rows)
	for _, want := range []string{"Netperf RR", "Nested VM+DVH", "timer", "kick"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown report missing %q", want)
		}
	}
	if _, ok := BreakdownOf(rows, "x", "y"); ok {
		t.Error("BreakdownOf found a ghost")
	}
}

func TestLatencyTails(t *testing.T) {
	rows, err := LatencyTails()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	get := func(w, c string) LatencyRow {
		for _, r := range rows {
			if r.Workload == w && r.Config == c {
				return r
			}
		}
		t.Fatalf("missing %s/%s", w, c)
		return LatencyRow{}
	}
	for _, w := range []string{"Netperf RR", "Memcached", "Apache"} {
		par := get(w, "Nested VM")
		dvh := get(w, "Nested VM+DVH")
		if dvh.P99 >= par.P99 {
			t.Errorf("%s: DVH p99 %v should undercut paravirt %v", w, dvh.P99, par.P99)
		}
		if dvh.MeanUS >= par.MeanUS {
			t.Errorf("%s: DVH mean %v should undercut paravirt %v", w, dvh.MeanUS, par.MeanUS)
		}
		if par.P50 > par.P99 || par.P99 > par.Max {
			t.Errorf("%s: quantiles not ordered: %+v", w, par)
		}
	}
	out := FormatLatency(rows)
	if !strings.Contains(out, "p99<=") || !strings.Contains(out, "Netperf RR") {
		t.Errorf("latency format:\n%s", out)
	}
}

func TestBuildHyperVGuest(t *testing.T) {
	st, err := Build(Spec{Depth: 2, IO: IODVHVP, Guest: GuestHyperV})
	if err != nil {
		t.Fatal(err)
	}
	if st.VMs[0].GuestHyp.Personality.Name() != "hyperv" {
		t.Fatalf("guest = %s", st.VMs[0].GuestHyp.Personality.Name())
	}
}
