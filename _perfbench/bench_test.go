package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/experiment"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it; want a refusal")
	}
	xs = append(xs, 1000)
	got, err := percentile(xs, 99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	// A median is not a tail: a few samples suffice.
	if got, err := percentile([]float64{3, 1, 2}, 50); err != nil || got != 2 {
		t.Fatalf("p50 of {1,2,3} = %v, %v; want 2", got, err)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of 1..4 = %v; want 2.5", got)
	}
}

func TestLayerOfChargesRuntimeToRepoCaller(t *testing.T) {
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{
			{"runtime.memclrNoHeapPointers", "runtime/memclr_amd64.s"},
			{"runtime.mallocgc", "runtime/malloc.go"},
			{"repro/internal/mem.NewBitmap", "/src/internal/mem/bitmap.go"},
			{"repro/internal/machine.New", "/src/internal/machine/machine.go"},
		}, "mem"},
		{[]frame{
			{"runtime.duffcopy", "runtime/duff_amd64.s"},
			{"repro/internal/workload.(*Runner).transaction", "/src/internal/workload/runner.go"},
		}, "workload"},
		{[]frame{
			{"runtime.mapassign_faststr", "runtime/map_faststr.go"},
			{"repro/internal/trace.(*Stats).Inc", "/src/internal/trace/stats.go"},
			{"repro/internal/hyper.(*World).Execute", "/src/internal/hyper/pipeline.go"},
		}, "trace"},
		{[]frame{
			{"repro/internal/hyper.(*World).replayForward", "/src/internal/hyper/plan.go"},
			{"repro/internal/hyper.(*World).Execute", "/src/internal/hyper/pipeline.go"},
		}, "plan"},
		{[]frame{
			{"repro/internal/parallel.Map[...].func1", "/src/internal/parallel/parallel.go"},
		}, "parallel"},
		{[]frame{
			{"repro/internal/pci.(*Device).AddCapability", "/src/internal/pci/pci.go"},
		}, "other"},
		{[]frame{
			{"runtime.scanobject", "runtime/mgcmark.go"},
			{"runtime.gcDrain", "runtime/mgcmark.go"},
			{"runtime.gcBgMarkWorker", "runtime/mgc.go"},
		}, "gc"},
		{[]frame{
			{"runtime.futex", "runtime/sys_linux_amd64.s"},
			{"main.main", "/src/_perfbench/main.go"},
		}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%s...) = %s; want %s", c.stack[0].fn, got, c.want)
		}
	}
}

// TestLayerSharesDecodesRealProfile profiles stack builds and checks the
// decoded shares cover every layer, sum to 100 and see the mem layer.
func TestLayerSharesDecodesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		if _, err := experiment.Build(experiment.Spec{Depth: 2, IO: experiment.IODVH}); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range layers {
		v, ok := shares[l]
		if !ok {
			t.Errorf("layer %s missing", l)
		}
		sum += v
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("shares sum to %v; want 100", sum)
	}
	if shares["mem"] == 0 {
		t.Errorf("no samples charged to mem while building stacks: %v", shares)
	}
}

// TestDoctoredGoldenRaisesErrorRate runs the paper sweep against a copy of
// the committed fixtures with one byte changed; the check must count it.
func TestDoctoredGoldenRaisesErrorRate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper sweep")
	}
	src := filepath.Join("..", goldenDir)
	dir := t.TempDir()
	for _, c := range sweepCalls {
		data, err := os.ReadFile(filepath.Join(src, c.fixture))
		if err != nil {
			t.Fatal(err)
		}
		if c.fixture == "figure9.golden" {
			data[len(data)-2] ^= 1
		}
		if err := os.WriteFile(filepath.Join(dir, c.fixture), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		dir    string
		failed int
	}{{src, 0}, {dir, 1}} {
		b := newBench(1, tc.dir, false)
		if err := (&paperSweep{}).setup(b); err != nil {
			t.Fatal(err)
		}
		if b.attempted != len(sweepCalls) || b.failed != tc.failed {
			t.Errorf("goldens in %s: %d of %d checks failed; want %d", tc.dir, b.failed, b.attempted, tc.failed)
		}
		if got := math.Round(b.table3Err*100) / 100; got != 5.49 {
			t.Errorf("table3_err_pct = %v; want 5.49", b.table3Err)
		}
	}
}

// TestMetricNames checks every metric name is well formed and that
// BENCHMARK.json declares exactly the workloads and metrics the program
// reports.
func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !valid.MatchString(d.name) {
			t.Errorf("metric name %q", d.name)
		}
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := newWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	same := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}
