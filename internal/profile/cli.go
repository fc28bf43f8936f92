package profile

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// Flag defines the -profile flag every command shares on the default
// command-line flag set. Resolve its value with MustResolve after
// flag.Parse.
func Flag() *string {
	return flag.String("profile", "", "calibration profile (default $"+Env+", then "+DefaultName+")")
}

// ListFlag defines -list-profiles on the default command-line flag set, for
// the commands that offer a listing; print it with PrintAll.
func ListFlag() *bool {
	return flag.Bool("list-profiles", false, "list registered calibration profiles and exit")
}

// MustResolve resolves a -profile value with Resolve's precedence. An
// unknown name is a usage error: it prints "cmd: error" (which lists the
// registered profiles) to stderr and exits 2.
func MustResolve(cmd, name string) Profile {
	p, err := Resolve(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
		os.Exit(2)
	}
	return p
}

// PrintAll lists the registered profiles — name, description and anchor set,
// the default marked — in All's sorted order, so the listing is
// deterministic.
func PrintAll(w io.Writer) {
	for _, p := range All() {
		marker := ""
		if p.Name == DefaultName {
			marker = " (default)"
		}
		fmt.Fprintf(w, "%s%s\n  %s\n  anchors: %s\n", p.Name, marker, p.Description, p.AnchorString())
	}
}
