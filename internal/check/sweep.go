package check

import (
	"fmt"
	"sort"

	"repro/internal/hyper"
	"repro/internal/mem"
	"repro/internal/vmx"
)

// Finish runs the end-of-run sweep over the whole machine and returns Err().
// It may be called repeatedly; each call re-sweeps current state.
func (c *Checker) Finish() error {
	if n := len(c.frames); n != 0 {
		c.violate("frame-balance", "%d boundary frame(s) still open at end of run", n)
		c.frames = c.frames[:0]
	}
	s := c.w.Host.Machine.Stats
	if hw, hd := s.TotalHardwareExits(), s.TotalHandledExits(); hw != hd {
		c.violate("exit-conservation", "end of run: %d hardware exits but only %d handled", hw, hd)
	}
	forEachVM(c.w.Host, c.sweepVM)
	for _, p := range c.w.Host.Machine.CPUs {
		c.checkLAPIC(fmt.Sprintf("pcpu%d", p.ID), p.LAPIC)
	}
	// Re-verify every recorded timer arm against the *current* VMCS chain: a
	// TSC offset corrupted after the arm was consistent still trips here.
	for i := range c.arms {
		c.checkArm(c.arms[i])
	}
	if c.armsDropped > 0 {
		// Not a violation, but the sweep's coverage claim must be honest.
		c.violate("timer-arm-overflow",
			"%d timer arm(s) beyond the %d-record cap were not re-verified", c.armsDropped, maxTimerArms)
	}
	return c.Err()
}

// forEachVM visits every VM in the nesting tree, outermost levels first.
func forEachVM(h *hyper.Hypervisor, fn func(*hyper.VM)) {
	for _, vm := range h.Guests {
		fn(vm)
		if vm.GuestHyp != nil {
			forEachVM(vm.GuestHyp, fn)
		}
	}
}

// sweepVM checks one VM's dirty-tracking agreement, its vCPUs' LAPICs, and —
// for vCPUs at least three levels deep — VMCS merge-chain associativity.
func (c *Checker) sweepVM(vm *hyper.VM) {
	c.checkDirtyTracking(vm)
	for _, v := range vm.VCPUs {
		c.checkLAPIC(vcpuName(v), v.LAPIC)
		c.checkMergeChain(v)
	}
}

// checkDirtyTracking verifies, at one nesting level, that the migration dirty
// log is a subset of the all-time written set and that the written set agrees
// exactly with the EPT A/D dirty bits — the invariant pre-copy migration
// depends on.
func (c *Checker) checkDirtyTracking(vm *hyper.VM) {
	for _, p := range vm.PeekDirty() {
		if !vm.Written(p) {
			c.violate("dirty-subset-written", "%s: frame %#x in dirty log but never written", vm.Name, uint64(p))
			return
		}
	}
	eptDirty := map[mem.PFN]bool{}
	vm.EPT.ForEachEntry(func(e mem.Entry) {
		if e.Dirty {
			eptDirty[e.From] = true
		}
	})
	for _, p := range vm.WrittenPages() {
		if !eptDirty[p] {
			c.violate("written-ept-dirty", "%s: written frame %#x has a clean EPT dirty bit", vm.Name, uint64(p))
			return
		}
	}
	// Iterate in sorted order so the reported frame is the same on every run
	// (map order would otherwise pick an arbitrary offender).
	eptPFNs := make([]mem.PFN, 0, len(eptDirty))
	for p := range eptDirty {
		eptPFNs = append(eptPFNs, p)
	}
	sort.Slice(eptPFNs, func(i, j int) bool { return eptPFNs[i] < eptPFNs[j] })
	for _, p := range eptPFNs {
		if !vm.Written(p) {
			c.violate("ept-dirty-written", "%s: EPT-dirty frame %#x never marked written", vm.Name, uint64(p))
			return
		}
	}
}

// checkMergeChain verifies vmx.Merge associativity on the vCPU's live VMCS
// nesting chain: folding outermost-in (what MergeChain does, and what an L0
// walking down does) must equal folding innermost-out (what a guest
// hypervisor handing a pre-merged vmcs12 up does). Chains shorter than three
// are trivially associative and skipped. Every field is compared: fields
// Merge never writes read as zero on both folds, so the superset is harmless
// and cannot drift from the set Merge produces.
func (c *Checker) checkMergeChain(v *hyper.VCPU) {
	chain := vmcsChain(v)
	if len(chain) < 3 {
		return
	}
	left := vmx.MergeChain(chain...)
	right := foldRight(chain)
	for f := vmx.Field(0); f < vmx.NumFieldIndexes; f++ {
		if l, r := left.Read(f), right.Read(f); l != r {
			c.violate("merge-associativity",
				"%s: field %#x differs between folds: left %#x, right %#x", vcpuName(v), f.Encoding(), l, r)
			return
		}
	}
}

// vmcsChain collects the VMCSs from the outermost ancestor down to v itself.
func vmcsChain(v *hyper.VCPU) []*vmx.VMCS {
	var chain []*vmx.VMCS
	for cur := v; cur != nil; cur = cur.Parent {
		chain = append(chain, cur.VMCS)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// foldRight merges the chain right-associatively: a⊕(b⊕(c⊕…)).
func foldRight(chain []*vmx.VMCS) *vmx.VMCS {
	if len(chain) == 1 {
		return chain[0]
	}
	return vmx.Merge(chain[0], foldRight(chain[1:]))
}
