package check_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/apic"
	"repro/internal/experiment"
	"repro/internal/migrate"
	"repro/internal/pci"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
	"repro/internal/workload"
)

// FuzzHistogram feeds arbitrary observation streams to trace.Histogram and
// checks its ordering and range properties, including the zero-sample edge.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 255, 255, 255, 255})
	f.Add(binary.LittleEndian.AppendUint32(nil, 1575))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h trace.Histogram
		n := uint64(0)
		for len(data) >= 4 {
			h.Observe(sim.Cycles(binary.LittleEndian.Uint32(data)))
			data = data[4:]
			n++
		}
		if h.Count() != n {
			t.Fatalf("Count() = %d after %d observations", h.Count(), n)
		}
		if n == 0 {
			for _, q := range []float64{0, 0.5, 0.99, 1} {
				if got := h.Quantile(q); got != 0 {
					t.Fatalf("empty histogram Quantile(%v) = %v", q, got)
				}
			}
			return
		}
		prev := sim.Cycles(0)
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				t.Fatalf("Quantile(%v) = %v < previous quantile %v", q, v, prev)
			}
			if v < h.Min() || v > h.Max() {
				t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, v, h.Min(), h.Max())
			}
			prev = v
		}
		if m := h.Mean(); m < float64(h.Min()) || m > float64(h.Max()) {
			t.Fatalf("Mean() = %v outside [%v, %v]", m, h.Min(), h.Max())
		}
	})
}

// FuzzLAPIC drives a local APIC with an arbitrary operation stream and
// checks the SDM's structural invariants after every step: IRR and ISR stay
// disjoint, PPR dominates TPR, and Ack only delivers above-PPR vectors.
func FuzzLAPIC(f *testing.F) {
	f.Add([]byte{0, 236, 1, 2})
	f.Add([]byte{0, 41, 0, 253, 1, 1, 2, 2, 3, 0xe0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		l := apic.NewLAPIC(0)
		step := func() {
			irr, isr := l.IRRSnapshot(), l.ISRSnapshot()
			for i := range irr {
				if irr[i]&isr[i] != 0 {
					t.Fatalf("IRR and ISR overlap: %#x in word %d", irr[i]&isr[i], i)
				}
			}
			if l.PPR()&0xf0 < l.TPR()&0xf0 {
				t.Fatalf("PPR %#x below TPR %#x", l.PPR(), l.TPR())
			}
		}
		for len(ops) >= 2 {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			switch op % 4 {
			case 0:
				l.Deliver(apic.Vector(arg))
			case 1:
				ppr := l.PPR()
				if v, ok := l.Ack(); ok {
					if uint8(v)&0xf0 <= ppr&0xf0 {
						t.Fatalf("Ack delivered vector %d at or below PPR %#x", v, ppr)
					}
					if !l.InService(v) {
						t.Fatalf("acked vector %d not in service", v)
					}
				}
			case 2:
				l.EOI()
			case 3:
				l.SetTPR(arg)
			}
			step()
		}
	})
}

// FuzzMergeChain builds three arbitrary VMCSs and checks that folding the
// nesting chain left or right produces the same vmcs02 — the associativity
// recursive virtualization relies on.
func FuzzMergeChain(f *testing.F) {
	f.Add(uint64(0x89ab), uint64(0x1), uint64(0xffff_ffff), uint64(3), uint64(0), uint64(42))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g uint64) {
		seeds := []uint64{a, b, c, d, e, g}
		chain := make([]*vmx.VMCS, 3)
		for i := range chain {
			chain[i] = vmx.NewVMCS()
			for fl := vmx.Field(0); fl < vmx.NumFieldIndexes; fl++ {
				// Mix the six fuzz words over the field set so every field of
				// every VMCS gets an input-dependent value.
				j := int(fl)
				v := seeds[(i*int(vmx.NumFieldIndexes)+j)%len(seeds)]
				chain[i].Write(fl, v>>(uint(j)%17)^v<<(uint(i*j)%11))
			}
		}
		left := vmx.MergeChain(chain[0], chain[1], chain[2])
		right := vmx.Merge(chain[0], vmx.Merge(chain[1], chain[2]))
		for fl := vmx.Field(0); fl < vmx.NumFieldIndexes; fl++ {
			if l, r := left.Read(fl), right.Read(fl); l != r {
				t.Fatalf("field %#x: left fold %#x != right fold %#x", fl.Encoding(), l, r)
			}
		}
	})
}

// FuzzConfigSpace exercises the PCI capability allocator with arbitrary
// add sequences: it must never panic, never hand out overlapping ranges,
// and keep the capability list walkable after rejecting an overflow.
func FuzzConfigSpace(f *testing.F) {
	f.Add([]byte{0x11, 12, byte(pci.CapVendor), 60}) // 0x11: MSI-X
	f.Fuzz(func(t *testing.T, seq []byte) {
		cs := pci.NewConfigSpace(0x8086, 0x10ca, 0x020000)
		type span struct{ off, size int }
		var taken []span
		added := 0
		for len(seq) >= 2 {
			id, size := pci.CapID(seq[0]), int(seq[1])
			seq = seq[2:]
			off, err := cs.AddCapability(id, size)
			if err != nil {
				continue
			}
			added++
			total := size + 2 // header bytes precede the body
			for _, s := range taken {
				if off < s.off+s.size && s.off < off+total {
					t.Fatalf("capability at %#x(+%d) overlaps earlier one at %#x(+%d)", off, total, s.off, s.size)
				}
			}
			taken = append(taken, span{off, total})
		}
		if got := capChainLen(cs); got != added {
			t.Fatalf("capability walk found %d entries, %d were added", got, added)
		}
	})
}

// capChainLen walks a config space's capability list the way PCI software
// does — the pointer at 0x34, then each header's next-pointer byte — and
// counts the entries, stopping past 64 so a corrupt (cyclic) chain fails the
// count instead of hanging.
func capChainLen(cs *pci.ConfigSpace) int {
	n := 0
	for p := int(cs.ReadU16(0x34) & 0xff); p != 0 && n <= 64; p = int(cs.ReadU16(p) >> 8) {
		n++
	}
	return n
}

// FuzzRestoreSnapshot mutates a valid nested-VM snapshot arbitrarily:
// restore must either succeed or fail cleanly, never panic, and a stack that
// accepted a blob must still satisfy every invariant.
func FuzzRestoreSnapshot(f *testing.F) {
	seedStack, err := experiment.Build(experiment.Spec{Depth: 2, IO: experiment.IODVH})
	if err != nil {
		f.Fatal(err)
	}
	r := workload.Runner{W: seedStack.World, VM: seedStack.Target,
		Net: seedStack.Net, Blk: seedStack.Blk, P: workload.Profiles()[0]}
	if _, err := r.Run(10); err != nil {
		f.Fatal(err)
	}
	blob, err := migrate.Snapshot(seedStack.Target, seedStack.DVH)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte("NVSNAP01garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := experiment.Build(experiment.Spec{Depth: 2, IO: experiment.IODVH})
		if err != nil {
			t.Fatal(err)
		}
		c := st.AttachChecker()
		if err := migrate.RestoreSnapshot(st.Target, st.DVH, data); err != nil {
			return
		}
		if err := c.Finish(); err != nil {
			t.Fatalf("restore accepted a blob that violates invariants: %v", err)
		}
	})
}

// FuzzStackCell samples the experiment configuration space and runs the
// microbenchmarks under the checker: any buildable cell must run to
// completion with zero invariant violations.
func FuzzStackCell(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(0), uint8(16))
	f.Add(uint8(3), uint8(0), uint8(1), uint8(8))
	f.Fuzz(func(t *testing.T, depth, io, guest, iters uint8) {
		spec := experiment.Spec{
			Depth: 1 + int(depth)%4,
			IO:    experiment.IOMode(io) % 4,
			Guest: experiment.GuestKind(guest) % 3,
		}
		st, err := experiment.Build(spec)
		if err != nil {
			// Invalid cells (e.g. DVH at depth 1) must be rejected, not built.
			return
		}
		c := st.AttachChecker()
		for _, m := range workload.Micros() {
			if _, err := workload.RunMicro(st.World, st.Target.VCPUs[0], m, st.Net, 1+int(iters)%16); err != nil {
				t.Fatalf("%+v: micro %v: %v", spec, m, err)
			}
		}
		if err := c.Finish(); err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
	})
}
