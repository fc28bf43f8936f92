// nvsim runs one workload on one nested-virtualization configuration and
// prints the projected result plus the exit accounting behind it:
//
//	nvsim -depth 2 -io paravirt -workload "Netperf RR"
//	nvsim -depth 3 -io dvh -workload Memcached -txns 5000
//	nvsim -depth 2 -io dvh-vp -guest xen -workload Apache -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiment"
	"repro/internal/profile"
	"repro/internal/workload"
)

func main() {
	depth := flag.Int("depth", 2, "virtualization depth: 1=VM, 2=nested VM, 3=L3 VM")
	ioName := flag.String("io", "paravirt", "I/O configuration: paravirt | passthrough | dvh-vp | dvh")
	guest := flag.String("guest", "kvm", "guest hypervisor: kvm | xen | hyperv")
	wl := flag.String("workload", "Netperf RR", "workload name from Table 2, or 'all'")
	txns := flag.Int("txns", 2000, "transactions to simulate")
	stats := flag.Bool("stats", false, "dump exit accounting after the run")
	breakdown := flag.Bool("breakdown", false, "print per-mechanism cycle attribution and latency percentiles")
	profName := profile.Flag()
	flag.Parse()

	prof := profile.MustResolve("nvsim", *profName)
	spec := experiment.Spec{Depth: *depth, Profile: prof.Name}
	switch strings.ToLower(*ioName) {
	case "paravirt":
		spec.IO = experiment.IOParavirt
	case "passthrough":
		spec.IO = experiment.IOPassthrough
	case "dvh-vp":
		spec.IO = experiment.IODVHVP
	case "dvh":
		spec.IO = experiment.IODVH
	default:
		fatalf("unknown -io %q", *ioName)
	}
	switch strings.ToLower(*guest) {
	case "kvm":
		spec.Guest = experiment.GuestKVM
	case "xen":
		spec.Guest = experiment.GuestXen
	case "hyperv":
		spec.Guest = experiment.GuestHyperV
	default:
		fatalf("unknown -guest %q", *guest)
	}

	st, err := experiment.Build(spec)
	if err != nil {
		fatalf("building stack: %v", err)
	}
	fmt.Printf("stack: depth=%d io=%v guest=%s profile=%s target=%s (%d vCPUs)\n",
		spec.Depth, spec.IO, *guest, st.Profile.Name, st.Target.Name, len(st.Target.VCPUs))

	var profiles []workload.Profile
	if *wl == "all" {
		profiles = workload.Profiles()
	} else {
		p, ok := workload.ProfileByName(*wl)
		if !ok {
			var names []string
			for _, p := range workload.Profiles() {
				names = append(names, p.Name)
			}
			fatalf("unknown workload %q (have: %s)", *wl, strings.Join(names, ", "))
		}
		profiles = []workload.Profile{p}
	}

	fmt.Printf("%-16s %10s %14s %14s %10s\n", "workload", "overhead", "score", "native", "unit")
	for _, p := range profiles {
		r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p}
		res, err := r.Run(*txns)
		if err != nil {
			fatalf("running %s: %v", p.Name, err)
		}
		fmt.Printf("%-16s %9.2fx %14.1f %14.1f %10s\n", p.Name, res.Overhead, res.Score, p.NativeScore, p.Unit)
		if *breakdown {
			fmt.Printf("  latency/txn: p50<=%v p99<=%v max=%v cycles\n",
				res.Latency.Quantile(0.50), res.Latency.Quantile(0.99), res.Latency.Max())
			// OpClass constants are declared in name order.
			for c, cycles := range res.Breakdown {
				if cycles > 0 {
					perTxn := float64(cycles) / float64(res.Transactions)
					fmt.Printf("  %-8v %12.0f cycles/txn\n", workload.OpClass(c), perTxn)
				}
			}
		}
	}

	if *stats {
		fmt.Println("\nexit accounting:")
		fmt.Print(st.Machine.Stats.String())
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nvsim: "+format+"\n", args...)
	os.Exit(1)
}
