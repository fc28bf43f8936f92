// Package mem models guest-physical memory and the translation structures
// the virtualization stack is built on: sparse byte-addressable address
// spaces with copy-on-write frame sharing, bitmaps, and real 4-level page
// tables used both as EPTs (CPU side) and as the combined shadow table
// virtual-passthrough DMA translates through (DMA side). Write tracking is not kept here: each VM level logs its own CPU
// writes (hyper.VM) and the host logs device DMA (core.VPState), as the
// paper divides it.
//
// Bytes really move: DMA payloads, VCIMTs and migration all read and
// write AddressSpace content, so a mapping bug shows up as corrupted data in
// tests, not as a silently wrong cycle count.
package mem

import (
	"fmt"
)

// Addr is a byte address within some (guest- or host-) physical address space.
type Addr uint64

// PFN is a page frame number: Addr >> PageShift.
type PFN uint64

const (
	// PageShift and PageSize fix 4 KiB pages, the granularity of EPT
	// mappings, dirty logging and migration transfer in the model.
	PageShift = 12
	PageSize  = 1 << PageShift
)

// PageOf returns the frame containing the address.
func PageOf(a Addr) PFN { return PFN(a >> PageShift) }

// Base returns the first address of the frame.
func (p PFN) Base() Addr { return Addr(p) << PageShift }

// AddressSpace is a sparse, byte-addressable physical address space backed by
// on-demand 4 KiB pages. It serves as host physical memory for the machine
// and as guest-physical memory for every VM level.
type AddressSpace struct {
	name   string
	npages PFN
	pages  map[PFN]*[PageSize]byte
	// shared flags the slots whose frame SharePage may have aliased into
	// another slot. A flagged frame is never written in place: the next
	// write to the slot copies it first. Nil until the space's first share,
	// so spaces that never share pay nothing for it.
	shared *Bitmap
}

// NewAddressSpace creates an address space of the given byte size (rounded up
// to whole pages). The name appears in errors and reports.
func NewAddressSpace(name string, size uint64) *AddressSpace {
	np := PFN((size + PageSize - 1) / PageSize)
	return &AddressSpace{
		name:   name,
		npages: np,
		pages:  make(map[PFN]*[PageSize]byte),
	}
}

// Name returns the space's label.
func (as *AddressSpace) Name() string { return as.name }

// NumPages returns the number of page frames in the space.
func (as *AddressSpace) NumPages() PFN { return as.npages }

// Size returns the byte size of the space.
func (as *AddressSpace) Size() uint64 { return uint64(as.npages) * PageSize }

// Contains reports whether the address lies inside the space.
func (as *AddressSpace) Contains(a Addr) bool { return PageOf(a) < as.npages }

func (as *AddressSpace) page(p PFN, allocate bool) (*[PageSize]byte, error) {
	if p >= as.npages {
		return nil, fmt.Errorf("mem: %s: page %#x beyond end (%#x pages)", as.name, uint64(p), uint64(as.npages))
	}
	pg := as.pages[p]
	if !allocate {
		return pg, nil
	}
	if pg == nil {
		// Sparse backing store: a frame materializes on first write only.
		// Hot read paths pass allocate=false and can never reach this.
		//nvlint:ignore hotalloc first-touch frame materialization; steady-state reads and rewrites hit the cached frame
		pg = new([PageSize]byte)
		as.pages[p] = pg
	} else if as.shared != nil && as.shared.Test(uint64(p)) {
		// Copy-on-write: another slot may alias this frame, so the writer
		// takes a private copy. The copy is unshared from birth.
		//nvlint:ignore hotalloc copy-on-write of a migrated frame, once per page per migration round; only SharePage flags frames
		cp := new([PageSize]byte)
		*cp = *pg
		pg = cp
		as.pages[p] = pg
		as.shared.Clear(uint64(p))
	}
	return pg, nil
}

// SharePage makes frame q of dst read as frame p of src without copying:
// both slots then alias one backing frame, flagged shared in both spaces,
// and whichever side is written next copies it first. A source page that
// was never written drops dst's frame, so q reads as zero. src and dst may
// be the same space.
func SharePage(src *AddressSpace, p PFN, dst *AddressSpace, q PFN) error {
	if p >= src.npages {
		return fmt.Errorf("mem: %s: page %#x beyond end (%#x pages)", src.name, uint64(p), uint64(src.npages))
	}
	if q >= dst.npages {
		return fmt.Errorf("mem: %s: page %#x beyond end (%#x pages)", dst.name, uint64(q), uint64(dst.npages))
	}
	if pg := src.pages[p]; pg != nil {
		src.markShared(p)
		dst.markShared(q)
		dst.pages[q] = pg
	} else {
		delete(dst.pages, q)
		if dst.shared != nil {
			dst.shared.Clear(uint64(q))
		}
	}
	return nil
}

// markShared flags slot p as possibly aliased, creating the flag set on the
// space's first share.
func (as *AddressSpace) markShared(p PFN) {
	if as.shared == nil {
		as.shared = NewBitmap(uint64(as.npages))
	}
	as.shared.Set(uint64(p))
}

// Read copies len(buf) bytes starting at a into buf. Unwritten memory reads
// as zero. It fails if the range escapes the space.
func (as *AddressSpace) Read(a Addr, buf []byte) error {
	for len(buf) > 0 {
		p := PageOf(a)
		off := int(a & (PageSize - 1))
		n := PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		pg, err := as.page(p, false)
		if err != nil {
			return err
		}
		if pg == nil {
			for i := 0; i < n; i++ {
				buf[i] = 0
			}
		} else {
			copy(buf[:n], pg[off:off+n])
		}
		buf = buf[n:]
		a += Addr(n)
	}
	return nil
}

// Write copies buf into the space starting at a.
func (as *AddressSpace) Write(a Addr, buf []byte) error {
	for len(buf) > 0 {
		p := PageOf(a)
		off := int(a & (PageSize - 1))
		n := PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		pg, err := as.page(p, true)
		if err != nil {
			return err
		}
		copy(pg[off:off+n], buf[:n])
		buf = buf[n:]
		a += Addr(n)
	}
	return nil
}

// ResidentPages returns the number of slots with backing storage; slots
// aliasing one shared frame each count.
func (as *AddressSpace) ResidentPages() int { return len(as.pages) }
