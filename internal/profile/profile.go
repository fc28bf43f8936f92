// Package profile is the calibration-profile subsystem: the named testbed
// anchors the simulator's cost model is calibrated against. The paper's
// evaluation ran on one platform (two CloudLab Xeon Silver 4114 servers), and
// for a long time that anchor was hard-coded — hyper.DefaultCosts() plus
// vmx.HardwareCaps baked into every experiment, bench and golden fixture. A
// Profile lifts that anchor into data: a cost model, a host capability word,
// a human description, and a set of *anchor assertions* — the Table 3
// "VM"-column identities the profile must reproduce (e.g. HwExit +
// HostDispatch + HwEntry == Hypercall(VM)). Figures then regenerate per
// testbed by swapping calibration data, not code; the engine, the invariant
// checker and the metamorphic properties are profile-independent, which
// `make profiles` proves by re-running the internal/check sweep under every
// registered profile.
//
// Profiles self-validate: Register refuses a profile whose cost model does
// not reproduce its own anchors, so calibration drift fails the build
// instead of rotting in comments.
package profile

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/hyper"
	"repro/internal/sim"
	"repro/internal/vmx"
)

// Env is the environment variable naming the process-wide default profile.
// The precedence everywhere (CLIs, experiment.Build) is: explicit -profile
// flag / Spec field, then Env, then DefaultName — the same convention as
// NVSIM_PARALLEL.
const Env = "NVSIM_PROFILE"

// DefaultName is the profile selected when neither a flag nor Env names one:
// the paper's own testbed. Every committed golden fixture and BENCH artifact
// is generated under it.
const DefaultName = "xeon-silver-4114"

// Anchor is one calibration identity a profile asserts about itself: a named
// Table 3 "VM"-column microbenchmark cost its cost model must reproduce
// exactly. Anchors are the executable replacement for the arithmetic
// comments that used to annotate hyper.DefaultCosts ("750+225+600 = 1,575").
type Anchor struct {
	// Name identifies the anchored quantity; it must be one of AnchorNames
	// (e.g. "Hypercall(VM)"), which fixes the identity's formula.
	Name string
	// Want is the asserted cost in cycles on the profile's testbed.
	Want sim.Cycles
}

// AnchorNames lists the recognized anchor identities in Table 1/3
// presentation order. Each names a single-level microbenchmark whose cost is
// a closed-form composition of CostModel fields; AnchorValue evaluates it.
var AnchorNames = []string{
	"Hypercall(VM)",
	"DevNotify(VM)",
	"ProgramTimer(VM)",
	"SendIPI(VM)",
}

// AnchorValue evaluates the named anchor identity against a cost model: the
// exact single-level composition the simulator executes for that
// microbenchmark. Everything nested emerges from the forwarding recursion,
// so single-level identities are the whole calibration surface.
func AnchorValue(c hyper.CostModel, name string) (sim.Cycles, bool) {
	hypercall := c.HwExit + c.HostDispatch + c.HwEntry
	switch name {
	case "Hypercall(VM)":
		// A null hypercall is one exit-dispatch-entry round trip.
		return hypercall, true
	case "DevNotify(VM)":
		// A doorbell kick adds the virtio backend's service work.
		return hypercall + c.VirtioBackendWork, true
	case "ProgramTimer(VM)":
		// A TSC-deadline write adds host hrtimer programming.
		return hypercall + c.TimerProgramWork, true
	case "SendIPI(VM)":
		// An IPI to an idle sibling adds ICR emulation plus the wake.
		return hypercall + c.IPIEmulWork + c.WakeWork, true
	}
	return 0, false
}

// Profile is one named testbed calibration: everything a simulation needs to
// know about the platform it is pretending to run on.
type Profile struct {
	// Name is the registry key, kebab-case by convention.
	Name string
	// Description says what hardware the calibration models and where the
	// numbers come from.
	Description string
	// Costs is the calibrated cycle-cost model (single-level anchors only;
	// nested behavior emerges from the forwarding recursion).
	Costs hyper.CostModel
	// Caps is the host hypervisor's hardware capability word on this
	// testbed. It shapes the forwarding recursion — dropping
	// vmx.CapVMCSShadowing, for example, sends every guest-hypervisor
	// VMREAD/VMWRITE through a full exit.
	Caps vmx.Caps
	// Anchors are the Table 3 "VM"-column identities this profile's cost
	// model must reproduce; Validate checks them.
	Anchors []Anchor
}

// Validate checks the profile's internal consistency: structural
// completeness, a plausible capability word, and — the point — every anchor
// identity. A profile whose cost model stops reproducing its anchors is
// miscalibrated, and Register refuses it.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("profile: empty name")
	}
	if p.Description == "" {
		return fmt.Errorf("profile %s: empty description", p.Name)
	}
	if !p.Caps.Has(vmx.CapVMX | vmx.CapEPT) {
		return fmt.Errorf("profile %s: capability word %v lacks VMX+EPT; nothing can nest on it", p.Name, p.Caps)
	}
	if len(p.Anchors) == 0 {
		return fmt.Errorf("profile %s: no anchor assertions; an unanchored calibration cannot self-validate", p.Name)
	}
	seen := map[string]bool{}
	for _, a := range p.Anchors {
		if seen[a.Name] {
			return fmt.Errorf("profile %s: duplicate anchor %q", p.Name, a.Name)
		}
		seen[a.Name] = true
		got, ok := AnchorValue(p.Costs, a.Name)
		if !ok {
			return fmt.Errorf("profile %s: unknown anchor identity %q (recognized: %s)",
				p.Name, a.Name, strings.Join(AnchorNames, ", "))
		}
		if got != a.Want {
			return fmt.Errorf("profile %s: anchor %s: cost model composes to %v cycles, profile asserts %v — calibration drift",
				p.Name, a.Name, got, a.Want)
		}
	}
	return nil
}

// AnchorString renders the anchor set on one line, in declaration order —
// the deterministic form -list-profiles prints.
func (p Profile) AnchorString() string {
	parts := make([]string, 0, len(p.Anchors))
	for _, a := range p.Anchors {
		parts = append(parts, fmt.Sprintf("%s=%d", a.Name, uint64(a.Want)))
	}
	return strings.Join(parts, " ")
}

// registry holds the registered profiles. Registration happens in package
// init (builtin.go) and, rarely, in test setup; lookups happen everywhere —
// no lock, matching the engine's single-threaded-setup convention (worlds
// are built per goroutine; the registry is written only before any of them
// exist).
var registry = map[string]Profile{}

// Register adds a profile after validating it. Duplicate names are a setup
// bug, not a benign overwrite: the registry is the provenance record stamped
// into artifacts, so two calibrations under one name would be unattributable.
func Register(p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if _, dup := registry[p.Name]; dup {
		return fmt.Errorf("profile: %q already registered", p.Name)
	}
	registry[p.Name] = p
	return nil
}

// mustRegister is Register for the built-in set, where a failure is a
// build-time calibration error.
func mustRegister(p Profile) {
	if err := Register(p); err != nil {
		panic(err) //nvlint:ignore nopanic package-init calibration failure: a built-in profile that cannot validate must stop the build, not limp on
	}
}

// Lookup finds a registered profile by name.
func Lookup(name string) (Profile, bool) {
	p, ok := registry[name]
	return p, ok
}

// Names returns the registered profile names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry { //nvlint:ordered sorted on the next line
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns the registered profiles sorted by name — the deterministic
// iteration order for listings and the per-profile validation sweep.
func All() []Profile {
	names := Names()
	out := make([]Profile, 0, len(names))
	for _, name := range names {
		out = append(out, registry[name])
	}
	return out
}

// Default returns the paper-testbed profile every tool falls back to.
func Default() Profile {
	p, ok := Lookup(DefaultName)
	if !ok {
		panic("profile: default profile " + DefaultName + " not registered") //nvlint:ignore nopanic unreachable: builtin.go registers DefaultName at package init and nothing unregisters
	}
	return p
}

// Resolve selects a profile with the standard precedence: an explicit name
// (a CLI's -profile flag or a Spec field) wins, then the NVSIM_PROFILE
// environment variable, then DefaultName. The error for an unknown name
// lists the registered profiles, so every CLI's failure mode names the valid
// choices.
func Resolve(name string) (Profile, error) {
	if name == "" {
		name = os.Getenv(Env)
	}
	if name == "" {
		name = DefaultName
	}
	p, ok := Lookup(name)
	if !ok {
		return Profile{}, fmt.Errorf("unknown calibration profile %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return p, nil
}

// Apply installs the profile on a world: cost model and host capability word
// in one step, through World.SetProfile so both the cost and capability
// generations move and any compiled plans invalidate.
func Apply(w *hyper.World, p Profile) {
	w.SetProfile(p.Costs, p.Caps)
}
