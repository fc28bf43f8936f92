package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/experiment"
)

// benchWorkload is one benchmark workload. setup builds the state the timed
// section needs (it runs setupReps times; only the last state is measured)
// and pass runs one fixed unit of timed work, returning the simulated guest
// transactions it executed.
type benchWorkload interface {
	setup(b *bench) error
	pass(b *bench) (txns int, err error)
}

func newWorkload(name string) (benchWorkload, bool) {
	switch name {
	case "paper-sweep":
		return &paperSweep{}, true
	case "steady-state":
		return &steadyState{}, true
	case "migrate":
		return &migrateWorkload{}, true
	}
	return nil, false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's configuration, its operation tally and what the
// workloads report besides timings.
type bench struct {
	seed   uint64
	golden string
	// tr records spans and the CPU profile; nil in untraced runs.
	tr *tracer
	// runID groups spans: "setup-N" or "pass-N".
	runID string

	attempted, failed int
	// table3Err is the mean absolute error of the derived Table 3 cells
	// against the paper, in percent.
	table3Err float64
	// counts holds per-layer counts read from public simulator state during
	// the first timed pass, which starts from the same state in every run.
	counts map[string]float64
	// passWalls lists every timed pass's host seconds, for the run record.
	passWalls []float64
}

func newBench(seed uint64, golden string, traced bool) *bench {
	b := &bench{seed: seed, golden: golden, counts: map[string]float64{}}
	if traced {
		b.tr = &tracer{on: true}
	}
	return b
}

// check counts one operation and records whether its output was correct.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if ok {
		return
	}
	b.failed++
	if b.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %s\n", b.runID, fmt.Sprintf(format, args...))
	}
}

// checkErr counts one operation that failed if err is non-nil.
func (b *bench) checkErr(err error, what string) {
	b.check(err == nil, "%s: %v", what, err)
}

// begin opens a span around a public call; end closes it. Both are no-ops
// when spans are off.
func (b *bench) begin(name string) int {
	if b.tr == nil || !b.tr.on {
		return -1
	}
	return b.tr.begin(name, b.runID)
}

func (b *bench) end(i int) {
	if i >= 0 {
		b.tr.end(i)
	}
}

// build assembles a stack under an experiment.build span, recording the heap
// bytes the build allocated when spans are on.
func (b *bench) build(spec experiment.Spec) (*experiment.Stack, error) {
	var m0, m1 runtime.MemStats
	on := b.tr != nil && b.tr.on
	if on {
		runtime.ReadMemStats(&m0)
	}
	i := b.begin("experiment.build")
	st, err := experiment.Build(spec)
	b.end(i)
	if on {
		runtime.ReadMemStats(&m1)
		b.tr.spans[i].AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	}
	if err != nil {
		return nil, fmt.Errorf("build %+v: %w", spec, err)
	}
	return st, nil
}

// passSample is one timed pass.
type passSample struct {
	wall                time.Duration
	txns                int
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
}

// passes runs timed passes until d has elapsed, and at least minPasses. In
// a traced run spans are on for every second pass only.
func (b *bench) passes(w benchWorkload, d time.Duration) ([]passSample, error) {
	const minPasses = 6
	var out []passSample
	deadline := time.Now().Add(d)
	for len(out) < minPasses || time.Now().Before(deadline) {
		b.runID = fmt.Sprintf("pass-%d", len(out)+1)
		if b.tr != nil {
			b.tr.on = len(out)%2 == 1
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		span := b.begin("pass")
		txns, err := w.pass(b)
		b.end(span)
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		b.passWalls = append(b.passWalls, wall.Seconds())
		out = append(out, passSample{
			wall:       wall,
			txns:       txns,
			allocBytes: m1.TotalAlloc - m0.TotalAlloc,
			mallocs:    m1.Mallocs - m0.Mallocs,
			gcCycles:   m1.NumGC - m0.NumGC,
			gcPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		})
	}
	if b.tr != nil {
		b.tr.on = false
	}
	return out, nil
}

// run sets the workload up setupReps times, then measures it for d. An
// untraced run reports the end-to-end metrics. A traced run keeps the CPU
// profiler on for all of d and records spans on every other pass; it
// reports the per-layer metrics, the passes without spans serving as the
// baseline for trace.overhead_pct.
func (b *bench) run(w benchWorkload, d time.Duration) (result, error) {
	setups := make([]float64, setupReps)
	start := processStart
	for i := range setups {
		b.runID = fmt.Sprintf("setup-%d", i+1)
		span := b.begin("setup")
		err := w.setup(b)
		b.end(span)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		now := time.Now()
		setups[i] = now.Sub(start).Seconds()
		runtime.GC() // drop the previous set-up's state before the next is timed
		start = time.Now()
	}
	if b.tr == nil {
		ps, err := b.passes(w, d)
		if err != nil {
			return result{}, err
		}
		return b.result(endToEnd(setups, ps, b.table3Err)), nil
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	ps, err := b.passes(w, d)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	b.tr.cpuProfile = prof.Bytes()
	var base, traced []passSample
	for i, p := range ps {
		if i%2 == 1 {
			traced = append(traced, p)
		} else {
			base = append(base, p)
		}
	}
	m, err := b.perLayer(base, traced)
	if err != nil {
		return result{}, err
	}
	return b.result(m), nil
}

func (b *bench) result(m map[string]metric) result {
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(setups []float64, ps []passSample, table3Err float64) map[string]metric {
	walls := make([]float64, len(ps))
	rates := make([]float64, len(ps))
	allocs := make([]float64, len(ps))
	for i, p := range ps {
		walls[i] = p.wall.Seconds()
		rates[i] = float64(p.txns) / p.wall.Seconds()
		allocs[i] = float64(p.allocBytes) / 1e6
	}
	return map[string]metric{
		"setup_s":        {median(setups), "s"},
		"wall_s":         {median(walls), "s"},
		"sim_txn_per_s":  {median(rates), "txn/s"},
		"alloc_mb":       {median(allocs), "MB"},
		"table3_err_pct": {table3Err, "%"},
	}
}

// perLayer computes the per-layer metrics of a traced run from its spans,
// its CPU profile, the counts the workloads read and the runtime's counters.
func (b *bench) perLayer(base, traced []passSample) (map[string]metric, error) {
	m := map[string]metric{}
	for _, d := range perLayerMetrics {
		m[d.name] = metric{0, d.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }

	// Builds happen in set-up; every other span is taken from timed passes.
	if ds := b.tr.durationsMS("setup-")["experiment.build"]; len(ds) > 0 {
		set("experiment.build_ms", median(ds))
	}
	byName := b.tr.durationsMS("pass-")
	for _, name := range []string{"experiment.figure", "experiment.migration", "migrate.snapshot", "migrate.restore", "workload.runfor"} {
		if ds := byName[name]; len(ds) > 0 {
			set(name+"_ms", median(ds))
		}
	}
	if mbs := b.tr.buildMB(); len(mbs) > 0 {
		set("experiment.build_mb", median(mbs))
	}
	if ds := byName["workload.runfor"]; len(ds) > 0 {
		p99, err := percentile(ds, 99)
		if err != nil {
			return nil, fmt.Errorf("workload.runfor_p99_ms: %w", err)
		}
		set("workload.runfor_p99_ms", p99)
		set("workload.runfor_samples", float64(len(ds)))
	}

	shares, err := layerShares(b.tr.cpuProfile)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for layer, pct := range shares {
		set("self."+layer, pct)
	}
	for name, v := range b.counts {
		set(name, v)
	}

	var mallocs, gcs, pauses, tracedWall, baseWall []float64
	for _, p := range traced {
		mallocs = append(mallocs, float64(p.mallocs))
		gcs = append(gcs, float64(p.gcCycles))
		pauses = append(pauses, float64(p.gcPause)/1e6)
		tracedWall = append(tracedWall, p.wall.Seconds())
	}
	for _, p := range base {
		baseWall = append(baseWall, p.wall.Seconds())
	}
	set("runtime.mallocs", median(mallocs))
	set("runtime.gc_cycles", median(gcs))
	set("runtime.gc_pause_ms", median(pauses))
	set("runtime.peak_rss_mb", peakRSSMB())
	set("trace.overhead_pct", 100*(median(tracedWall)/median(baseWall)-1))
	set("error_rate", float64(b.failed)/float64(b.attempted))
	return m, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

type metricDef struct{ name, unit string }

// endToEndMetrics and perLayerMetrics are the names and units BENCHMARK.json
// declares; a test keeps the two in step.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"}, {"wall_s", "s"}, {"sim_txn_per_s", "txn/s"},
	{"alloc_mb", "MB"}, {"table3_err_pct", "%"},
}

var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"experiment.figure_ms", "ms"}, {"experiment.build_ms", "ms"}, {"experiment.build_mb", "MB"},
		{"workload.runfor_ms", "ms"}, {"workload.runfor_p99_ms", "ms"}, {"workload.runfor_samples", "count"},
		{"experiment.migration_ms", "ms"}, {"migrate.snapshot_ms", "ms"}, {"migrate.restore_ms", "ms"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"self." + l, "%"})
	}
	return append(defs,
		metricDef{"plan.compiles", "count"}, metricDef{"plan.replays", "count"},
		metricDef{"plan.delivery_compiles", "count"}, metricDef{"plan.delivery_replays", "count"},
		metricDef{"plan.invalidations", "count"}, metricDef{"plan.replay_ratio", "ratio"},
		metricDef{"plan.lookups", "count"},
		metricDef{"hyper.hw_exits", "count"}, metricDef{"hyper.handled_exits", "count"},
		metricDef{"hyper.exits_per_txn", "exits/txn"}, metricDef{"sim.sim_seconds", "s"},
		metricDef{"migrate.pages_sent", "count"}, metricDef{"migrate.snapshot_kb", "KB"},
		metricDef{"runtime.mallocs", "count"}, metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"}, metricDef{"runtime.peak_rss_mb", "MB"},
		metricDef{"trace.overhead_pct", "%"}, metricDef{"error_rate", "fraction"},
	)
}()
