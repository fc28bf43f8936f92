// Command nvperf emits the machine-readable benchmark artifact for this
// repository (BENCH_10.json): the modeled per-figure results — Table 3
// cycles, the delivery-storm matrix and the Figure 7–10 overhead matrices —
// together with host-side hot-path measurements (ns/op, allocs/op, B/op) for
// the exit-transaction pipeline, including the uncached-vs-replayed pairs of
// both plan caches (forwarded exits and interrupt-delivery paths). The
// modeled numbers are deterministic and comparable across machines; the
// hot-path numbers measure the simulator itself and belong to the machine
// that produced them.
//
// Usage:
//
//	nvperf [-o BENCH_10.json]
//	nvperf -compare BENCH_10.json
//
// -compare re-collects the artifact and gates against the given baseline:
// Table 3 and storm cycles must match exactly (they are deterministic model
// outputs), steady-state replayed forward and delivery paths must stay
// allocation-free and at least 5x faster than their uncached twins on the L3
// hypercall and L3 timer-delivery paths, and no hot-path benchmark may
// regress more than 20% ns/op against the baseline. It exits non-zero on
// violation — the `make bench-compare` gate inside `make check`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/experiment"
	"repro/internal/hyper"
	"repro/internal/profile"
)

// Artifact is the BENCH_10.json schema, version bench-v4: v4 adds the
// delivery-storm cycle matrix and the delivery-path uncached/replayed
// hot-path pairs; v3 added the calibration-profile provenance field, so a
// baseline records which testbed anchors its modeled cycles were produced
// under.
type Artifact struct {
	Schema string `json:"schema"`
	// Profile names the calibration profile the modeled figures were
	// collected under (internal/profile).
	Profile string       `json:"profile"`
	Figures []FigureData `json:"figures"`
	HotPath []HotBench   `json:"hot_path"`
}

// FigureData is one table or figure: Table 3 carries cycle rows, the
// application figures carry overhead bars.
type FigureData struct {
	Name   string     `json:"name"`
	Cycles []CycleRow `json:"cycles,omitempty"`
	Bars   []Overhead `json:"bars,omitempty"`
}

// CycleRow is one Table 3 microbenchmark row, in modeled CPU cycles.
type CycleRow struct {
	Name    string `json:"name"`
	VM      int64  `json:"vm"`
	Nested  int64  `json:"nested"`
	NestedD int64  `json:"nested_dvh"`
	L3      int64  `json:"l3"`
	L3D     int64  `json:"l3_dvh"`
}

// Overhead is one application-figure bar (1.0 = native speed).
type Overhead struct {
	Workload string  `json:"workload"`
	Config   string  `json:"config"`
	Overhead float64 `json:"overhead"`
}

// HotBench is one host-side measurement of the simulator's exit path.
type HotBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Ops         int     `json:"ops"`
}

func main() {
	out := flag.String("o", "BENCH_10.json", "output path for the benchmark artifact")
	compare := flag.String("compare", "", "baseline artifact to gate against instead of writing one")
	profName := profile.Flag()
	flag.Parse()

	prof := profile.MustResolve("nvperf", *profName)
	experiment.SetDefaultProfile(prof.Name)

	a := Artifact{Schema: "nvperf/bench-v4", Profile: prof.Name}
	if err := collectFigures(&a); err != nil {
		fmt.Fprintln(os.Stderr, "nvperf:", err)
		os.Exit(1)
	}
	if err := collectHotPath(&a); err != nil {
		fmt.Fprintln(os.Stderr, "nvperf:", err)
		os.Exit(1)
	}

	if *compare != "" {
		if err := gate(&a, *compare); err != nil {
			fmt.Fprintln(os.Stderr, "nvperf: FAIL:", err)
			os.Exit(1)
		}
		fmt.Printf("nvperf: %s holds (%d figures, %d hot-path benchmarks within gates)\n", *compare, len(a.Figures), len(a.HotPath))
		return
	}

	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvperf:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "nvperf:", err)
		os.Exit(1)
	}
	fmt.Printf("nvperf: wrote %s (%d figures, %d hot-path benchmarks)\n", *out, len(a.Figures), len(a.HotPath))
}

// regressionBudget is the ns/op slack tolerated against the committed
// baseline before the gate fails. Hot-path wall-clock is machine-dependent;
// 20% on top of the baseline machine's numbers catches order-of-magnitude
// regressions (a cache that silently stopped replaying) while absorbing
// normal scheduling noise.
const regressionBudget = 1.20

// speedupFloor is the minimum replayed-over-uncached speedup the plan cache
// must deliver on the deep forwarding path. Self-relative, so it holds on any
// machine.
const speedupFloor = 5.0

// gate re-collects the artifact (already in a) and validates it against the
// committed baseline.
func gate(a *Artifact, baselinePath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Artifact
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}

	// Modeled cycles are only comparable within one calibration: the baseline
	// must record the profile it was produced under (bench-v3) and it must be
	// the one this run used.
	if base.Profile == "" {
		return fmt.Errorf("%s: no profile field (schema %q); regenerate the baseline as bench-v3", baselinePath, base.Schema)
	}
	if base.Profile != a.Profile {
		return fmt.Errorf("calibration profile mismatch: this run used %q, baseline %s was produced under %q", a.Profile, baselinePath, base.Profile)
	}

	// Modeled cycles are deterministic: any drift is a model change that must
	// come with a regenerated artifact, never an accident.
	if err := compareCycles(&base, a); err != nil {
		return err
	}

	cur := hotByName(a)
	for _, b := range base.HotPath {
		c, ok := cur[b.Name]
		if !ok {
			return fmt.Errorf("hot-path benchmark %q in baseline but not in this build", b.Name)
		}
		if c.NsPerOp > b.NsPerOp*regressionBudget {
			return fmt.Errorf("%s: %.0f ns/op vs baseline %.0f ns/op (>%.0f%% regression)",
				b.Name, c.NsPerOp, b.NsPerOp, (regressionBudget-1)*100)
		}
	}

	// The replay contract, self-relative on this machine: every replayed path
	// — forwarded exits and delivery paths alike — is allocation-free, and the
	// deep (L3) forwarding and timer-delivery paths are >= 5x faster than
	// re-running their recursion.
	for _, pair := range [][2]string{
		{"execute/L2-hypercall-uncached", "execute/L2-hypercall-replayed"},
		{"execute/L3-hypercall-uncached", "execute/L3-hypercall-replayed"},
		{"deliver/L2-timer-uncached", "deliver/L2-timer-replayed"},
		{"deliver/L3-timer-uncached", "deliver/L3-timer-replayed"},
		{"deliver/L3-devirq-uncached", "deliver/L3-devirq-replayed"},
	} {
		un, ok1 := cur[pair[0]]
		re, ok2 := cur[pair[1]]
		if !ok1 || !ok2 {
			return fmt.Errorf("missing uncached/replayed pair %v", pair)
		}
		if re.AllocsPerOp != 0 {
			return fmt.Errorf("%s: %d allocs/op, want 0 in steady-state replay", pair[1], re.AllocsPerOp)
		}
		deep := pair[0] == "execute/L3-hypercall-uncached" || pair[0] == "deliver/L3-timer-uncached"
		if deep && un.NsPerOp < speedupFloor*re.NsPerOp {
			return fmt.Errorf("%s speedup %.1fx over %s, want >= %.0fx",
				pair[1], un.NsPerOp/re.NsPerOp, pair[0], speedupFloor)
		}
	}
	return nil
}

// compareCycles requires the deterministic cycle matrices — Table 3 and the
// delivery storms — of both artifacts to be identical.
func compareCycles(base, cur *Artifact) error {
	for _, name := range []string{"table3", "storms"} {
		bt, ct := cyclesOf(base, name), cyclesOf(cur, name)
		if bt == nil || ct == nil {
			return fmt.Errorf("%s missing from artifact", name)
		}
		if len(bt) != len(ct) {
			return fmt.Errorf("%s has %d rows, baseline %d", name, len(ct), len(bt))
		}
		for i := range bt {
			if bt[i] != ct[i] {
				return fmt.Errorf("%s row %q drifted: %+v, baseline %+v", name, ct[i].Name, ct[i], bt[i])
			}
		}
	}
	return nil
}

func cyclesOf(a *Artifact, name string) []CycleRow {
	for _, f := range a.Figures {
		if f.Name == name {
			return f.Cycles
		}
	}
	return nil
}

func hotByName(a *Artifact) map[string]HotBench {
	m := make(map[string]HotBench, len(a.HotPath))
	for _, h := range a.HotPath {
		m[h.Name] = h
	}
	return m
}

// collectFigures runs the deterministic evaluation matrix.
func collectFigures(a *Artifact) error {
	rows, err := experiment.Table3()
	if err != nil {
		return err
	}
	t3 := FigureData{Name: "table3"}
	for _, r := range rows {
		t3.Cycles = append(t3.Cycles, CycleRow{
			Name: r.Name, VM: int64(r.VM), Nested: int64(r.Nested),
			NestedD: int64(r.NestedD), L3: int64(r.L3), L3D: int64(r.L3D),
		})
	}
	a.Figures = append(a.Figures, t3)

	storms, err := experiment.DeliveryStorms()
	if err != nil {
		return fmt.Errorf("storms: %w", err)
	}
	sf := FigureData{Name: "storms"}
	for _, r := range storms {
		sf.Cycles = append(sf.Cycles, CycleRow{
			Name: r.Name, VM: int64(r.VM), Nested: int64(r.Nested),
			NestedD: int64(r.NestedD), L3: int64(r.L3), L3D: int64(r.L3D),
		})
	}
	a.Figures = append(a.Figures, sf)

	apps := []struct {
		name string
		run  func() ([]experiment.AppResult, error)
	}{
		{"figure7", experiment.Figure7},
		{"figure8", experiment.Figure8},
		{"figure9", experiment.Figure9},
		{"figure10", experiment.Figure10},
	}
	for _, f := range apps {
		results, err := f.run()
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		fd := FigureData{Name: f.name}
		for _, r := range results {
			fd.Bars = append(fd.Bars, Overhead{Workload: r.Workload, Config: r.Config, Overhead: r.Overhead})
		}
		a.Figures = append(a.Figures, fd)
	}
	return nil
}

// collectHotPath benchmarks the pipeline's representative outcomes on this
// host: single-level host emulation, the L2/L3 forwarding path in both plan
// modes (uncached live recursion vs steady-state replay of the compiled
// plan), an interceptor-claimed exit (DVH doorbell), and the delivery paths
// the plan cache's delivery kinds serve — timer injection and assigned-device IRQ
// cascades — in the same two modes. Each case drives a boundary entry point
// through a prebuilt stack, so allocs/op is the engine's own allocation count
// — the number the 0 allocs/op contract pins. The uncached/replayed pairs
// produce identical simulation results; only the host-side cost differs,
// which is what the -compare gate's 5x floors check.
func collectHotPath(a *Artifact) error {
	execOp := func(op hyper.Op) func(st *experiment.Stack) func() error {
		return func(st *experiment.Stack) func() error {
			v := st.Target.VCPUs[0]
			return func() error {
				_, err := st.World.Execute(v, op)
				return err
			}
		}
	}
	timer := func(st *experiment.Stack) func() error {
		v := st.Target.VCPUs[0]
		return func() error {
			_, err := st.World.DeliverTimerIRQ(v)
			return err
		}
	}
	devirq := func(st *experiment.Stack) func() error {
		v := st.Target.VCPUs[0]
		return func() error {
			_, err := st.World.DeliverDeviceIRQ(st.Net, v)
			return err
		}
	}
	cache := map[string]bool{"uncached": false, "replayed": true}
	cases := []struct {
		name string
		spec experiment.Spec
		mode string // "", "uncached" or "replayed"
		step func(st *experiment.Stack) func() error
	}{
		{"execute/L1-hypercall", experiment.Spec{Depth: 1, IO: experiment.IOParavirt}, "", execOp(hyper.Hypercall())},
		{"execute/L2-hypercall-uncached", experiment.Spec{Depth: 2, IO: experiment.IOParavirt}, "uncached", execOp(hyper.Hypercall())},
		{"execute/L2-hypercall-replayed", experiment.Spec{Depth: 2, IO: experiment.IOParavirt}, "replayed", execOp(hyper.Hypercall())},
		{"execute/L3-hypercall-uncached", experiment.Spec{Depth: 3, IO: experiment.IOParavirt}, "uncached", execOp(hyper.Hypercall())},
		{"execute/L3-hypercall-replayed", experiment.Spec{Depth: 3, IO: experiment.IOParavirt}, "replayed", execOp(hyper.Hypercall())},
		{"execute/L2-doorbell-intercepted", experiment.Spec{Depth: 2, IO: experiment.IODVH}, "",
			func(st *experiment.Stack) func() error { return execOp(hyper.DevNotify(st.Net.Doorbell))(st) }},
		{"deliver/L2-timer-uncached", experiment.Spec{Depth: 2, IO: experiment.IOParavirt}, "uncached", timer},
		{"deliver/L2-timer-replayed", experiment.Spec{Depth: 2, IO: experiment.IOParavirt}, "replayed", timer},
		{"deliver/L3-timer-uncached", experiment.Spec{Depth: 3, IO: experiment.IOParavirt}, "uncached", timer},
		{"deliver/L3-timer-replayed", experiment.Spec{Depth: 3, IO: experiment.IOParavirt}, "replayed", timer},
		// DVH-VP without vIOMMU posting forces exit-based injection by the
		// level-2 guest hypervisor — the reflected guestPath the cache serves.
		{"deliver/L3-devirq-uncached", experiment.Spec{Depth: 3, IO: experiment.IODVHVP}, "uncached", devirq},
		{"deliver/L3-devirq-replayed", experiment.Spec{Depth: 3, IO: experiment.IODVHVP}, "replayed", devirq},
	}
	for _, tc := range cases {
		st, err := experiment.Build(tc.spec)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		if tc.mode != "" {
			st.World.SetPlanCache(cache[tc.mode])
		}
		step := tc.step(st)
		// Warm caches (hypervisor stack, plan tables in replayed mode) so the
		// measurement is steady state, not first-exit compilation.
		if err := step(); err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		var execErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := step(); err != nil {
					execErr = err
					b.FailNow()
				}
			}
		})
		if execErr != nil {
			return fmt.Errorf("%s: %w", tc.name, execErr)
		}
		a.HotPath = append(a.HotPath, HotBench{
			Name:        tc.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Ops:         r.N,
		})
	}
	return nil
}
