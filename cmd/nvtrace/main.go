// nvtrace runs one Table 1 microbenchmark and dumps the exit accounting,
// making exit multiplication (paper Figure 1a) directly visible: one nested
// hypercall fans out into dozens of hardware exits, most of them the guest
// hypervisor's own trapped VMREAD/VMWRITE/VMRESUME instructions.
//
//	nvtrace -depth 2 -micro Hypercall
//	nvtrace -depth 3 -micro ProgramTimer -dvh
//	nvtrace -depth 3 -micro Hypercall -stages
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiment"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	depth := flag.Int("depth", 2, "virtualization depth (1-3)")
	micro := flag.String("micro", "Hypercall", "microbenchmark: Hypercall | DevNotify | ProgramTimer | SendIPI")
	dvh := flag.Bool("dvh", false, "enable DVH")
	timeline := flag.Bool("timeline", false, "print the per-exit timeline, indented by handler level")
	stages := flag.Bool("stages", false, "print per-stage cycle attribution and latency histograms")
	ring := flag.Int("ring", 4096, "timeline ring-buffer capacity (exits retained)")
	profName := profile.Flag()
	flag.Parse()

	prof := profile.MustResolve("nvtrace", *profName)

	var m workload.Micro
	switch *micro {
	case "Hypercall":
		m = workload.MicroHypercall
	case "DevNotify":
		m = workload.MicroDevNotify
	case "ProgramTimer":
		m = workload.MicroProgramTimer
	case "SendIPI":
		m = workload.MicroSendIPI
	default:
		fmt.Fprintf(os.Stderr, "nvtrace: unknown microbenchmark %q\n", *micro)
		os.Exit(2)
	}

	if *depth < 1 || *depth > 3 {
		fmt.Fprintf(os.Stderr, "nvtrace: -depth must be between 1 and 3, got %d\n", *depth)
		os.Exit(2)
	}
	if *ring < 1 {
		fmt.Fprintf(os.Stderr, "nvtrace: -ring must be positive, got %d\n", *ring)
		os.Exit(2)
	}

	io := experiment.IOParavirt
	if *dvh {
		if *depth < 2 {
			fmt.Fprintln(os.Stderr, "nvtrace: DVH needs a nested VM (-depth >= 2)")
			os.Exit(2)
		}
		io = experiment.IODVH
	}
	st, err := experiment.Build(experiment.Spec{Depth: *depth, IO: io, Profile: prof.Name})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvtrace: %v\n", err)
		os.Exit(1)
	}

	st.Machine.Stats.Reset()
	if *timeline {
		st.World.Tracer = trace.NewRecorder(*ring)
	}
	var ss *trace.StageStats
	if *stages {
		ss = &trace.StageStats{}
	}
	cycles, err := workload.RunMicroObserved(st.World, st.Target.VCPUs[0], m, st.Net, 1, ss)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvtrace: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s from L%d (dvh=%v, profile=%s): %v cycles\n\n", m, *depth, *dvh, st.Profile.Name, cycles)
	fmt.Print(st.Machine.Stats.String())
	if *stages {
		fmt.Println("\nper-stage attribution:")
		fmt.Print(ss.String())
	}
	if *timeline {
		retained := len(st.World.Tracer.Events())
		total := st.World.Tracer.Len()
		fmt.Println("\nexit timeline:")
		if uint64(retained) < total {
			fmt.Printf("(%d of %d exits retained; oldest dropped — raise -ring)\n", retained, total)
		}
		fmt.Print(st.World.Tracer.Timeline())
	}
}
