// Package experiment assembles the paper's evaluation configurations and
// regenerates its tables and figures: Table 3 (microbenchmark cycles),
// Figure 7 (application overhead at two virtualization levels), Figure 8
// (DVH technique breakdown), Figure 9 (three levels), Figure 10 (Xen guest
// hypervisor), and the Section 4 migration measurements.
package experiment

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/hyperv"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/xen"
)

// IOMode selects the I/O configuration of a stack, matching the bars of
// Figures 7, 9 and 10.
type IOMode int

const (
	// IOParavirt is the traditional virtual I/O model (virtio at every
	// level — the cascade for nested VMs).
	IOParavirt IOMode = iota
	// IOPassthrough assigns a physical SR-IOV VF through the whole chain.
	IOPassthrough
	// IODVHVP is DVH virtual-passthrough only (no other DVH mechanism, no
	// vIOMMU posted interrupts) — the paper's conservative "DVH-VP" bars.
	IODVHVP
	// IODVH is the full DVH configuration.
	IODVH
)

func (m IOMode) String() string {
	switch m {
	case IOParavirt:
		return "paravirt"
	case IOPassthrough:
		return "passthrough"
	case IODVHVP:
		return "DVH-VP"
	case IODVH:
		return "DVH"
	}
	return fmt.Sprintf("IOMode(%d)", int(m))
}

// GuestKind selects the guest hypervisor implementation.
type GuestKind int

const (
	// GuestKVM nests KVM on KVM (the paper's main configuration).
	GuestKVM GuestKind = iota
	// GuestXen nests Xen on KVM (Figure 10).
	GuestXen
	// GuestHyperV nests a Hyper-V-style hypervisor on KVM — the Windows
	// VBS/Credential Guard scenario the paper's introduction motivates
	// nested virtualization with (an extension; the paper evaluates KVM and
	// Xen guests).
	GuestHyperV
)

// Spec describes one evaluation stack.
type Spec struct {
	// Depth is the virtualization depth: 1 = VM, 2 = nested VM, 3 = L3 VM.
	Depth int
	// IO is the I/O configuration.
	IO IOMode
	// Guest selects the guest hypervisor implementation (Depth >= 2).
	Guest GuestKind
	// Features overrides the DVH feature set for IODVHVP/IODVH stacks; zero
	// means the mode's default (FeaturesVP / FeaturesAll). This is how the
	// Figure 8 increments are expressed.
	Features core.Features
	// Profile names the calibration profile (internal/profile) the stack is
	// built under; "" means the harness default (SetDefaultProfile, then
	// NVSIM_PROFILE, then xeon-silver-4114). The resolved profile supplies
	// both the cost model and the host capability word.
	Profile string
	// Enlightened registers the guest hypervisor's enlightenment interceptor
	// (hyperv.Enlightenment or xen.Enlightenment) on the world, so exits the
	// enlightenment claims are handled directly at the host instead of being
	// forwarded — the interceptor-chain path AE artifact runs exercise.
	// Requires Depth >= 2 and a non-KVM guest.
	Enlightened bool
}

// Stack is an assembled evaluation configuration.
type Stack struct {
	Spec Spec
	// Profile is the resolved calibration profile the stack was built under —
	// the provenance record CLIs stamp into headers and artifacts.
	Profile profile.Profile
	Machine *machine.Machine
	World   *hyper.World
	DVH     *core.DVH
	// VMs holds the chain, VMs[0] at level 1; Target is the innermost.
	VMs    []*hyper.VM
	Target *hyper.VM
	// Net and Blk are the target VM's devices.
	Net *hyper.AssignedDevice
	Blk *hyper.AssignedDevice
	// Checker is the invariant checker installed by AttachChecker, if any.
	Checker *check.Checker
}

// AttachChecker installs an invariant checker on the stack's world so every
// subsequent boundary operation is validated; call Checker.Finish() after the
// run for the end-of-run sweep. Idempotent per stack.
func (st *Stack) AttachChecker() *check.Checker {
	if st.Checker == nil {
		st.Checker = check.Attach(st.World)
	}
	return st.Checker
}

// Build assembles a stack per the spec. The topology follows the paper's
// Section 4 setup: the innermost VM has 4 cores and 12 GB, and each
// intervening hypervisor level adds 2 cores and 12 GB.
func Build(spec Spec) (*Stack, error) {
	if spec.Depth < 1 || spec.Depth > 4 {
		return nil, fmt.Errorf("experiment: depth %d out of range", spec.Depth)
	}
	if spec.Depth == 1 && (spec.IO == IODVHVP || spec.IO == IODVH) {
		return nil, fmt.Errorf("experiment: %v requires a nested VM (depth >= 2)", spec.IO)
	}
	if spec.Enlightened {
		if spec.Depth < 2 {
			return nil, fmt.Errorf("experiment: Enlightened requires a nested stack (depth >= 2); there is no guest hypervisor to enlighten at depth %d", spec.Depth)
		}
		if spec.Guest == GuestKVM {
			return nil, fmt.Errorf("experiment: Enlightened requires a Hyper-V or Xen guest hypervisor; KVM has no enlightenment interceptor")
		}
	}
	prof, err := resolveProfile(spec.Profile)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	m, err := machine.New(machine.Config{
		Name:        fmt.Sprintf("cloudlab-L%d-%v", spec.Depth, spec.IO),
		CPUs:        10,
		MemoryBytes: 96 << 30,
		Caps:        prof.Caps,
		NICVFs:      8,
	})
	if err != nil {
		return nil, err
	}
	host := hyper.NewHost(m, hyper.KVM{})
	st := &Stack{Spec: spec, Profile: prof, Machine: m, World: hyper.NewWorld(host)}
	// Install the calibration before anything compiles or measures. This is
	// the one place experiment stacks ever touch cost models or capability
	// words; under the default profile it is a bit-identical no-op relative to
	// the previously hard-coded DefaultCosts()/HardwareCaps pair.
	profile.Apply(st.World, prof)

	features := spec.Features
	if features == 0 {
		switch spec.IO {
		case IODVHVP:
			features = core.FeaturesVP
		case IODVH:
			features = core.FeaturesAll
		default:
			// Paravirtual and passthrough baselines run without DVH.
		}
	}
	if features != 0 {
		d, err := core.Enable(st.World, features)
		if err != nil {
			return nil, err
		}
		st.DVH = d
	}

	guestPersonality := func() hyper.Personality {
		switch spec.Guest {
		case GuestXen:
			return xen.Xen{}
		case GuestHyperV:
			return hyperv.HyperV{}
		default:
			// GuestKVM and the zero value both mean the paper's default stack.
			return hyper.KVM{}
		}
	}

	// Build the VM chain: 4 cores for the innermost VM plus 2 per
	// intervening hypervisor, 12 GB per level.
	h := host
	for lvl := 1; lvl <= spec.Depth; lvl++ {
		cores := 4 + 2*(spec.Depth-lvl)
		memBytes := uint64(12*(spec.Depth-lvl+1)) << 30
		vm, err := h.CreateVM(hyper.VMConfig{
			Name:     fmt.Sprintf("L%d-vm", lvl),
			VCPUs:    cores,
			MemBytes: memBytes,
		})
		if err != nil {
			return nil, err
		}
		st.VMs = append(st.VMs, vm)
		if lvl < spec.Depth {
			h = vm.InstallHypervisor(guestPersonality(), fmt.Sprintf("%s-L%d", guestPersonality().Name(), lvl))
		}
	}
	st.Target = st.VMs[spec.Depth-1]

	if err := st.attachIO(); err != nil {
		return nil, err
	}
	if st.DVH != nil && spec.Depth >= 2 {
		if err := st.DVH.ConfigureVM(st.Target); err != nil {
			return nil, err
		}
	}
	if spec.Enlightened {
		var ic hyper.Interceptor
		switch spec.Guest {
		case GuestHyperV:
			ic = hyperv.Enlightenment{}
		case GuestXen:
			ic = xen.Enlightenment{}
		default:
			// Unreachable: the GuestKVM case was rejected up front.
			return nil, fmt.Errorf("experiment: no enlightenment interceptor for guest %d", spec.Guest)
		}
		if err := st.World.RegisterInterceptor(ic); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// attachIO wires the target VM's network and block devices per the I/O mode.
func (st *Stack) attachIO() error {
	switch st.Spec.IO {
	case IOParavirt:
		// The cascade: every level gets its own virtio devices.
		for _, vm := range st.VMs {
			net, err := hyper.AttachParavirt(vm, hyper.DevNet, fmt.Sprintf("virtio-net-L%d", vm.Level))
			if err != nil {
				return err
			}
			blk, err := hyper.AttachParavirt(vm, hyper.DevBlk, fmt.Sprintf("virtio-blk-L%d", vm.Level))
			if err != nil {
				return err
			}
			if vm == st.Target {
				st.Net, st.Blk = net, blk
			}
		}
	case IOPassthrough:
		// NIC: a physical VF through the chain. Storage stays virtio at
		// every level, as in the paper's testbed (passthrough applies to the
		// SR-IOV NIC only).
		for _, vm := range st.VMs[:len(st.VMs)-1] {
			vm.ProvideVIOMMU(true)
		}
		for _, vm := range st.VMs {
			blk, err := hyper.AttachParavirt(vm, hyper.DevBlk, fmt.Sprintf("virtio-blk-L%d", vm.Level))
			if err != nil {
				return err
			}
			if vm == st.Target {
				st.Blk = blk
			}
		}
		vfs, err := st.Machine.CreateVFs(1)
		if err != nil {
			return err
		}
		net, err := hyper.AttachPassthroughNIC(st.Target, vfs[0])
		if err != nil {
			return err
		}
		st.Net = net
	case IODVHVP, IODVH:
		net, err := st.DVH.AttachVirtualPassthrough(st.Target, hyper.DevNet, "vp-net0")
		if err != nil {
			return err
		}
		blk, err := st.DVH.AttachVirtualPassthrough(st.Target, hyper.DevBlk, "vp-blk0")
		if err != nil {
			return err
		}
		st.Net, st.Blk = net, blk
	default:
		return fmt.Errorf("experiment: unknown IO mode %v", st.Spec.IO)
	}
	return nil
}
