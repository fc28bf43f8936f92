// Command nvlint runs the simulator-aware static analyzer over the module:
// determinism, hot-path allocation-freedom, exit-reason exhaustiveness,
// no-panic engine code, and the v2 pipeline contract (plan-cache generation
// soundness). It prints one file:line finding per violation and exits
// nonzero if any are active.
//
// Usage:
//
//	nvlint [-dir .] [-v] [-json] [-unused-directives]
//
// With -v it also prints the hot-path call chain justifying each allocation
// finding, the suppressed findings with their //nvlint:ignore reasons, the
// rules that ran, and the hot-set size. With -json it emits one JSON object
// per line (rule, position, message, directive candidates) for CI and
// nvreport to consume. With -unused-directives, //nvlint comments that no
// longer suppress anything are promoted to failing findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	dir := flag.String("dir", ".", "module root to analyze")
	verbose := flag.Bool("v", false, "print call chains, suppressions, rules run and hot-set size")
	jsonOut := flag.Bool("json", false, "emit findings as JSON lines instead of text")
	unused := flag.Bool("unused-directives", false, "fail on //nvlint directives that suppress nothing")
	flag.Parse()

	cfg, err := lint.ModuleConfig(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvlint:", err)
		os.Exit(2)
	}
	res, err := lint.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvlint:", err)
		os.Exit(2)
	}

	failing := len(res.Findings)
	if *unused {
		failing += len(res.Unused)
	}

	if *jsonOut {
		if err := lint.EncodeJSON(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "nvlint:", err)
			os.Exit(2)
		}
		if failing > 0 {
			os.Exit(1)
		}
		return
	}

	for _, f := range res.Findings {
		fmt.Println(f)
		if *verbose && len(f.Chain) > 0 {
			fmt.Printf("\tvia: %s\n", strings.Join(f.Chain, " -> "))
		}
	}
	if *unused {
		for _, f := range res.Unused {
			fmt.Println(f)
		}
	}
	if *verbose {
		for _, f := range res.Suppressed {
			fmt.Printf("%s:%d: [%s] suppressed: %s (reason: %s)\n",
				f.File, f.Line, f.Rule, f.Msg, f.SuppressReason)
			if len(f.Chain) > 0 {
				fmt.Printf("\tvia: %s\n", strings.Join(f.Chain, " -> "))
			}
		}
		if !*unused {
			for _, f := range res.Unused {
				fmt.Printf("%s:%d: [%s] (advisory) %s\n", f.File, f.Line, f.Rule, f.Msg)
			}
		}
		fmt.Printf("nvlint: rules: %s\n", strings.Join(res.RulesRun, " "))
		fmt.Printf("nvlint: %d hot function(s), %d finding(s), %d suppressed, %d unused directive(s)\n",
			res.HotFuncs, len(res.Findings), len(res.Suppressed), len(res.Unused))
	}
	if failing > 0 {
		fmt.Fprintf(os.Stderr, "nvlint: %d finding(s)\n", failing)
		os.Exit(1)
	}
}
