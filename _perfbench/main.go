// Command perfbench is nvsim's end-to-end benchmark: it measures how fast the
// simulator produces the paper's results, on three workloads that stress
// different layers (see README.md and ../BENCHMARK.json). It drives nvsim only
// through its public functions.
//
//	bash _perfbench/run.sh --workload steady-state --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics; with --trace 1 they are the per-layer metrics, taken
// from spans the benchmark records around each public call and from a CPU
// profile of the traced passes. Spans, the profile and a provenance record are
// written under .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/profile"
)

// processStart anchors setup_s: the first set-up is timed from process start.
var processStart = time.Now()

const (
	// schema versions the result and provenance layout; results are compared
	// only between runs with the same schema, host and configuration.
	schema = "perfbench/v1"
	// goldenDir holds the committed experiment fixtures, relative to the
	// repository root the benchmark runs from. They are read at run time, so
	// a deliberate `make golden` needs no benchmark edit.
	goldenDir = "internal/experiment/testdata/golden"
	// outDir receives spans, CPU profiles and provenance records.
	outDir = ".bench_build/perfbench"
	// setupReps is how many times each run sets up its workload; setup_s is
	// their median. Only the last set-up's state is measured.
	setupReps = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-sweep | steady-state | migrate")
	seed := fs.Uint64("seed", 1, "workload seed (steady-state seeds Runner.RNG from it; the other workloads are the paper's fixed matrix)")
	seconds := fs.Int("seconds", 10, "length of the timed section in host seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := newWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (valid: paper-sweep, steady-state, migrate)\n", *name)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	// Pin the configuration the environment could otherwise change: the
	// calibration profile, the pool width and the plan cache.
	for _, env := range []string{"NVSIM_PROFILE", "NVSIM_PARALLEL", "NVSIM_NOPLANCACHE"} {
		os.Unsetenv(env)
	}
	experiment.SetParallelism(runtime.NumCPU())
	experiment.SetDefaultProfile(profile.DefaultName)

	b := newBench(*seed, goldenDir, *traced == 1)
	res, err := b.run(wl, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	prov := provenance(*name, *seed, *seconds, *traced == 1)
	if err := b.writeArtifacts(outDir, *name, prov, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(prov)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "provenance %s\n", line)
	if line, err = json.Marshal(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// writeArtifacts stores the run's spans and CPU profile (traced runs) and a
// record pairing its provenance with its result.
func (b *bench) writeArtifacts(dir, name string, prov map[string]any, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v", name, b.seed, b.tr != nil))
	record, err := json.MarshalIndent(map[string]any{"provenance": prov, "result": res, "pass_wall_s": b.passWalls}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", record, 0o644); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	if err := os.WriteFile(stem+".cpu.pprof", b.tr.cpuProfile, 0o644); err != nil {
		return err
	}
	return b.tr.writeSpans(stem + ".spans.jsonl")
}
