package mem

// Perm is a page permission mask.
type Perm uint8

const (
	PermRead  Perm = 1 << 0
	PermWrite Perm = 1 << 1
	PermExec  Perm = 1 << 2
	PermRW         = PermRead | PermWrite
	PermRWX        = PermRead | PermWrite | PermExec
)

// Has reports whether every permission in want is granted.
func (p Perm) Has(want Perm) bool { return p&want == want }

func (p Perm) String() string {
	buf := []byte("---")
	if p.Has(PermRead) {
		buf[0] = 'r'
	}
	if p.Has(PermWrite) {
		buf[1] = 'w'
	}
	if p.Has(PermExec) {
		buf[2] = 'x'
	}
	return string(buf)
}

// PageTable is a real 4-level radix page table, 9 bits per level, mapping
// page frames in one address space to page frames in another. It serves as:
//
//   - an EPT (guest-physical → host-physical, CPU accesses),
//   - an IOMMU translation table (device DMA addresses → physical),
//   - the combined shadow table virtual-passthrough builds (Ln guest-physical
//     → L1 guest-physical, paper Figure 6).
//
// Walks traverse the actual radix structure so their cost (levels touched)
// is an output of the data structure, not a constant.
type PageTable struct {
	root   *ptNode
	mapped int
}

// ptLevels is the radix depth: 4 levels of 9 bits cover 48-bit addresses.
const ptLevels = 4

type ptNode struct {
	entries [512]ptEntry
}

type ptEntry struct {
	next     *ptNode // interior pointer (nil at leaf level)
	pfn      PFN     // leaf target frame
	perms    Perm
	present  bool
	accessed bool
	dirty    bool
}

// NewPageTable returns an empty table.
func NewPageTable() *PageTable {
	return &PageTable{root: &ptNode{}}
}

// indices splits a frame number into its per-level radix indices, highest
// level first.
func indices(p PFN) [ptLevels]int {
	var ix [ptLevels]int
	for l := 0; l < ptLevels; l++ {
		shift := uint(9 * (ptLevels - 1 - l))
		ix[l] = int((uint64(p) >> shift) & 0x1ff)
	}
	return ix
}

// Map installs a translation from frame from to frame to with the given
// permissions, building intermediate levels as needed. Remapping an existing
// entry overwrites it.
func (t *PageTable) Map(from, to PFN, perms Perm) {
	ix := indices(from)
	node := t.root
	for l := 0; l < ptLevels-1; l++ {
		e := &node.entries[ix[l]]
		if e.next == nil {
			e.next = &ptNode{}
			e.present = true
		}
		node = e.next
	}
	leaf := &node.entries[ix[ptLevels-1]]
	if !leaf.present {
		t.mapped++
	}
	*leaf = ptEntry{pfn: to, perms: perms, present: true}
}

// Unmap removes a translation, reporting whether one existed.
func (t *PageTable) Unmap(from PFN) bool {
	ix := indices(from)
	node := t.root
	for l := 0; l < ptLevels-1; l++ {
		e := &node.entries[ix[l]]
		if e.next == nil {
			return false
		}
		node = e.next
	}
	leaf := &node.entries[ix[ptLevels-1]]
	if !leaf.present {
		return false
	}
	*leaf = ptEntry{}
	t.mapped--
	return true
}

// Walk describes the result of a page-table walk.
type Walk struct {
	// PFN is the translated frame (valid only when Present).
	PFN PFN
	// Perms are the leaf permissions.
	Perms Perm
	// Present reports whether a translation exists.
	Present bool
	// LevelsTouched counts radix nodes visited, including the one where the
	// walk terminated — the quantity exit handlers charge walk cycles for.
	// A missing top-level entry costs 1; a full walk costs 4.
	LevelsTouched int
}

// Lookup walks the table for frame from, setting accessed (and, for write
// access, dirty) bits like hardware A/D-bit tracking.
func (t *PageTable) Lookup(from PFN, access Perm) Walk {
	ix := indices(from)
	node := t.root
	w := Walk{}
	for l := 0; l < ptLevels-1; l++ {
		w.LevelsTouched++
		e := &node.entries[ix[l]]
		if e.next == nil {
			return w
		}
		node = e.next
	}
	w.LevelsTouched++
	leaf := &node.entries[ix[ptLevels-1]]
	if !leaf.present {
		return w
	}
	w.Present = true
	w.PFN = leaf.pfn
	w.Perms = leaf.perms
	leaf.accessed = true
	if access.Has(PermWrite) && leaf.perms.Has(PermWrite) {
		leaf.dirty = true
	}
	return w
}

// Mapped returns the number of installed leaf translations.
func (t *PageTable) Mapped() int { return t.mapped }

// Entry describes one installed translation with its A/D tracking state.
type Entry struct {
	From, To PFN
	Perms    Perm
	Accessed bool
	Dirty    bool
}

// ForEachEntry visits every installed translation in ascending frame order,
// exposing the hardware A/D bits Lookup maintains — the view a hypervisor's
// dirty-page scanner has of an EPT.
func (t *PageTable) ForEachEntry(fn func(Entry)) {
	var walk func(n *ptNode, prefix PFN, level int)
	walk = func(n *ptNode, prefix PFN, level int) {
		for i := range n.entries {
			e := &n.entries[i]
			if !e.present && e.next == nil {
				continue
			}
			p := prefix<<9 | PFN(i)
			if level == ptLevels-1 {
				if e.present {
					fn(Entry{From: p, To: e.pfn, Perms: e.perms, Accessed: e.accessed, Dirty: e.dirty})
				}
			} else if e.next != nil {
				walk(e.next, p, level+1)
			}
		}
	}
	walk(t.root, 0, 0)
}

// Clear removes every translation.
func (t *PageTable) Clear() {
	t.root = &ptNode{}
	t.mapped = 0
}
