package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddressSpaceReadWrite(t *testing.T) {
	as := NewAddressSpace("test", 1<<20)
	data := []byte("direct virtual hardware")
	if err := as.Write(0x1000, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := as.Read(0x1000, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("read back %q, want %q", buf, data)
	}
}

func TestAddressSpaceCrossPage(t *testing.T) {
	as := NewAddressSpace("test", 1<<20)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	start := Addr(PageSize - 100) // straddles 4 pages
	if err := as.Write(start, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := as.Read(start, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("cross-page round trip corrupted data")
	}
	if got := as.ResidentPages(); got != 4 {
		t.Fatalf("resident pages = %d, want 4", got)
	}
}

func TestAddressSpaceZeroFill(t *testing.T) {
	as := NewAddressSpace("test", 1<<16)
	buf := []byte{1, 2, 3, 4}
	if err := as.Read(0x2000, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten memory should read zero")
		}
	}
}

func TestAddressSpaceBounds(t *testing.T) {
	as := NewAddressSpace("small", PageSize)
	if err := as.Write(PageSize, []byte{1}); err == nil {
		t.Fatal("write past end should fail")
	}
	if err := as.Read(Addr(PageSize-1), make([]byte, 2)); err == nil {
		t.Fatal("read crossing end should fail")
	}
	if as.Contains(PageSize) {
		t.Fatal("Contains should reject out-of-range address")
	}
	if !as.Contains(PageSize - 1) {
		t.Fatal("Contains should accept last byte")
	}
}

func TestU64RoundTrip(t *testing.T) {
	as := NewAddressSpace("test", 1<<16)
	const v = 0x0123456789abcdef
	if err := as.WriteU64(0x100, v); err != nil {
		t.Fatal(err)
	}
	got, err := as.ReadU64(0x100)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("ReadU64 = %#x, want %#x", got, uint64(v))
	}
	// Little-endian layout check.
	var b [1]byte
	if err := as.Read(0x100, b[:]); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0xef {
		t.Fatalf("first byte %#x, want 0xef (little endian)", b[0])
	}
}

func TestDirtyLogging(t *testing.T) {
	as := NewAddressSpace("vm", 1<<20)
	as.Write(0, []byte{1})
	as.StartDirtyLog()
	as.Write(PageSize*3, []byte{2})
	as.Write(PageSize*3+5, []byte{3}) // same page, counted once
	as.Write(PageSize*7, []byte{4})
	dirty := as.CollectDirty()
	if len(dirty) != 2 || dirty[0] != 3 || dirty[1] != 7 {
		t.Fatalf("dirty pages = %v, want [3 7]", dirty)
	}
	// Collection clears the log.
	if d := as.CollectDirty(); len(d) != 0 {
		t.Fatalf("second collection returned %v, want empty", d)
	}
	as.StopDirtyLog()
	as.Write(PageSize*9, []byte{5})
	if as.DirtyLogActive() {
		t.Fatal("log should be inactive")
	}
	if d := as.CollectDirty(); d != nil {
		t.Fatal("collection with inactive log should return nil")
	}
}

func TestWrittenPages(t *testing.T) {
	as := NewAddressSpace("vm", 1<<20)
	as.Write(0, []byte{1})
	as.Write(PageSize*5, []byte{1})
	as.MarkPageDirty(9)
	w := as.WrittenPages()
	if len(w) != 3 || w[0] != 0 || w[1] != 5 || w[2] != 9 {
		t.Fatalf("written pages = %v, want [0 5 9]", w)
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(200)
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(199)
	b.Set(500) // out of range: ignored
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	if !b.Test(63) || !b.Test(64) || b.Test(65) {
		t.Fatal("Test wrong around word boundary")
	}
	b.Clear(63)
	if b.Test(63) || b.Count() != 3 {
		t.Fatal("Clear failed")
	}
	var seen []uint64
	b.ForEach(func(i uint64) { seen = append(seen, i) })
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 64 || seen[2] != 199 {
		t.Fatalf("ForEach order = %v", seen)
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestBitmapOr(t *testing.T) {
	a, b := NewBitmap(128), NewBitmap(128)
	a.Set(1)
	b.Set(100)
	a.Or(b)
	if !a.Test(1) || !a.Test(100) {
		t.Fatal("Or missed bits")
	}
}

func TestBitmapCountProperty(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := NewBitmap(1 << 16)
		uniq := map[uint16]bool{}
		for _, i := range idxs {
			b.Set(uint64(i))
			uniq[i] = true
		}
		return b.Count() == uint64(len(uniq))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBitmapOrClipsToLen is the reproducer for a union that wrote past
// Len(): ORing a longer bitmap into a 10-bit one must not make bit 20
// visible to Count or ForEach while Test denies it.
func TestBitmapOrClipsToLen(t *testing.T) {
	x := NewBitmap(64)
	x.Set(20)
	x.Set(3)
	b := NewBitmap(10)
	b.Or(x)
	if b.Count() != 1 || !b.Test(3) || b.Test(20) {
		t.Fatalf("Count=%d Test(3)=%v Test(20)=%v; want 1, true, false", b.Count(), b.Test(3), b.Test(20))
	}
	b.ForEach(func(i uint64) {
		if i >= b.Len() {
			t.Fatalf("ForEach yielded %d beyond Len()=%d", i, b.Len())
		}
	})
}

// refBitmap is the reference model a Bitmap is checked against: a set of
// in-range indexes.
type refBitmap struct {
	n    uint64
	bits map[uint64]bool
}

func (r *refBitmap) set(i uint64) {
	if i < r.n {
		r.bits[i] = true
	}
}

// checkAgainstRef compares b with its reference on Count, on Test at every
// probe index and every set index, and on ForEach's sequence, which must be
// the reference's indexes in ascending order.
func checkAgainstRef(t *testing.T, step string, b *Bitmap, r *refBitmap, probes []uint64) {
	t.Helper()
	if b.Len() != r.n {
		t.Fatalf("%s: Len=%d, want %d", step, b.Len(), r.n)
	}
	if got := b.Count(); got != uint64(len(r.bits)) {
		t.Fatalf("%s: Count=%d, want %d", step, got, len(r.bits))
	}
	for _, i := range probes {
		if b.Test(i) != r.bits[i] {
			t.Fatalf("%s: Test(%d)=%v, want %v", step, i, b.Test(i), r.bits[i])
		}
	}
	var seen []uint64
	b.ForEach(func(i uint64) { seen = append(seen, i) })
	if len(seen) != len(r.bits) {
		t.Fatalf("%s: ForEach yielded %d bits, want %d", step, len(seen), len(r.bits))
	}
	for k, i := range seen {
		if k > 0 && i <= seen[k-1] {
			t.Fatalf("%s: ForEach not ascending: %d after %d", step, i, seen[k-1])
		}
		if !r.bits[i] || !b.Test(i) {
			t.Fatalf("%s: ForEach yielded %d, which is not set", step, i)
		}
	}
	pfns := b.PFNs()
	if len(pfns) != len(seen) || cap(pfns) != len(seen) {
		t.Fatalf("%s: PFNs has len %d cap %d, want both %d", step, len(pfns), cap(pfns), len(seen))
	}
	for k, i := range seen {
		if pfns[k] != PFN(i) {
			t.Fatalf("%s: PFNs[%d]=%d, want %d", step, k, pfns[k], i)
		}
	}
}

// TestBitmapMatchesReference drives random Set/Clear/Reset/Or sequences
// against a map-backed reference, over lengths that are multiples of
// neither 64 nor chunkBits, hammering the chunk and length boundaries.
func TestBitmapMatchesReference(t *testing.T) {
	lengths := []uint64{1, 10, 65, chunkBits - 1, chunkBits + 1, 2*chunkBits + 37, 3*chunkBits - 5}
	for li, n := range lengths {
		rng := rand.New(rand.NewSource(int64(li) + 1))
		// The Or operand has a different length: shorter for even cases,
		// longer for odd ones.
		on := n/2 + 3
		if li%2 == 1 {
			on = n + chunkBits + 7
		}
		probes := []uint64{0, 63, 64, chunkBits - 1, chunkBits, chunkBits + 1, n - 1, n, n + 1, on - 1, on}
		pick := func() uint64 {
			if rng.Intn(2) == 0 {
				return probes[rng.Intn(len(probes))]
			}
			return uint64(rng.Int63n(int64(n + 70)))
		}
		b, r := NewBitmap(n), &refBitmap{n: n, bits: map[uint64]bool{}}
		for step := 0; step < 400; step++ {
			var op string
			switch k := rng.Intn(20); {
			case k < 12:
				i := pick()
				op = fmt.Sprintf("Set(%d)", i)
				b.Set(i)
				r.set(i)
			case k < 17:
				i := pick()
				op = fmt.Sprintf("Clear(%d)", i)
				b.Clear(i)
				delete(r.bits, i)
			case k < 18:
				op = "Reset"
				b.Reset()
				r.bits = map[uint64]bool{}
			default:
				o, or := NewBitmap(on), &refBitmap{n: on, bits: map[uint64]bool{}}
				for j := 0; j < 8; j++ {
					i := probes[rng.Intn(len(probes))]
					if j%2 == 1 {
						i = uint64(rng.Int63n(int64(on + 70)))
					}
					o.Set(i)
					or.set(i)
				}
				checkAgainstRef(t, fmt.Sprintf("n=%d step %d: operand", n, step), o, or, probes)
				op = fmt.Sprintf("Or(%d bits, %d set)", on, len(or.bits))
				b.Or(o)
				for i := range or.bits {
					r.set(i)
				}
			}
			checkAgainstRef(t, fmt.Sprintf("n=%d step %d: %s", n, step, op), b, r, probes)
		}
	}
}

func TestPageTableMapLookup(t *testing.T) {
	pt := NewPageTable()
	pt.Map(0x1234, 0xabcd, PermRW)
	w := pt.Lookup(0x1234, PermRead)
	if !w.Present || w.PFN != 0xabcd {
		t.Fatalf("lookup = %+v", w)
	}
	if w.LevelsTouched != 4 {
		t.Fatalf("full walk touched %d levels, want 4", w.LevelsTouched)
	}
	miss := pt.Lookup(0x9999, PermRead)
	if miss.Present {
		t.Fatal("unmapped frame translated")
	}
	if miss.LevelsTouched < 1 || miss.LevelsTouched > 4 {
		t.Fatalf("miss touched %d levels", miss.LevelsTouched)
	}
}

func TestPageTableMissDepth(t *testing.T) {
	pt := NewPageTable()
	// Frames sharing high-level indices force deeper partial walks.
	pt.Map(0, 1, PermRW)
	w := pt.Lookup(1, PermRead) // same L1..L3 path as frame 0, leaf absent
	if w.Present {
		t.Fatal("frame 1 should be unmapped")
	}
	if w.LevelsTouched != 4 {
		t.Fatalf("adjacent miss touched %d levels, want 4", w.LevelsTouched)
	}
	far := pt.Lookup(PFN(1)<<27, PermRead) // different top-level entry
	if far.LevelsTouched != 1 {
		t.Fatalf("distant miss touched %d levels, want 1", far.LevelsTouched)
	}
}

func TestPageTableUnmap(t *testing.T) {
	pt := NewPageTable()
	pt.Map(5, 10, PermRW)
	if pt.Mapped() != 1 {
		t.Fatal("Mapped != 1")
	}
	if !pt.Unmap(5) {
		t.Fatal("Unmap of mapped frame returned false")
	}
	if pt.Unmap(5) {
		t.Fatal("double Unmap returned true")
	}
	if pt.Mapped() != 0 {
		t.Fatal("Mapped != 0 after unmap")
	}
}

func TestPageTableTranslatePermissions(t *testing.T) {
	pt := NewPageTable()
	pt.Map(1, 2, PermRead)
	if _, err := pt.Translate(PageSize+123, PermRead); err != nil {
		t.Fatalf("read translate failed: %v", err)
	}
	if _, err := pt.Translate(PageSize+123, PermWrite); err == nil {
		t.Fatal("write through read-only mapping should fail")
	}
	a, err := pt.Translate(PageSize+123, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if a != 2*PageSize+123 {
		t.Fatalf("translated to %#x, want %#x", uint64(a), uint64(2*PageSize+123))
	}
}

func TestPageTableRemapOverwrites(t *testing.T) {
	pt := NewPageTable()
	pt.Map(1, 2, PermRW)
	pt.Map(1, 3, PermRead)
	w := pt.Lookup(1, PermRead)
	if w.PFN != 3 || w.Perms != PermRead {
		t.Fatalf("remap not applied: %+v", w)
	}
	if pt.Mapped() != 1 {
		t.Fatalf("Mapped = %d after remap, want 1", pt.Mapped())
	}
}

func TestPageTableForEachOrder(t *testing.T) {
	pt := NewPageTable()
	frames := []PFN{100, 5, 1 << 30, 77}
	for i, f := range frames {
		pt.Map(f, PFN(i), PermRW)
	}
	var got []PFN
	pt.ForEach(func(from, to PFN, p Perm) { got = append(got, from) })
	want := []PFN{5, 77, 100, 1 << 30}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
}

func TestPageTableCombine(t *testing.T) {
	// L2→L1 then L1→L0, as recursive virtual-passthrough composes them.
	l2l1 := NewPageTable()
	l1l0 := NewPageTable()
	l2l1.Map(10, 20, PermRW)
	l2l1.Map(11, 21, PermRW)
	l2l1.Map(12, 99, PermRW) // dangling: no L1→L0 mapping
	l1l0.Map(20, 300, PermRW)
	l1l0.Map(21, 301, PermRead) // perms intersect
	combined := l2l1.Combine(l1l0)
	if combined.Mapped() != 2 {
		t.Fatalf("combined has %d mappings, want 2", combined.Mapped())
	}
	w := combined.Lookup(10, PermRead)
	if !w.Present || w.PFN != 300 || w.Perms != PermRW {
		t.Fatalf("combined 10 → %+v", w)
	}
	w = combined.Lookup(11, PermRead)
	if !w.Present || w.PFN != 301 || w.Perms != PermRead {
		t.Fatalf("combined 11 → %+v (perms should intersect)", w)
	}
	if combined.Lookup(12, PermRead).Present {
		t.Fatal("dangling mapping should not appear in combined table")
	}
}

func TestPageTableCombineAssociativeProperty(t *testing.T) {
	// (A∘B)∘C == A∘(B∘C) over random small tables — the invariant recursive
	// virtual-passthrough relies on when collapsing an arbitrary-depth chain.
	f := func(seeds [6]uint8) bool {
		mk := func(lo, hi uint8) *PageTable {
			pt := NewPageTable()
			for i := uint8(0); i < 8; i++ {
				pt.Map(PFN(lo%8+i), PFN(hi%8+i*2), PermRW)
			}
			return pt
		}
		a := mk(seeds[0], seeds[1])
		b := mk(seeds[2], seeds[3])
		c := mk(seeds[4], seeds[5])
		left := a.Combine(b).Combine(c)
		right := a.Combine(b.Combine(c))
		if left.Mapped() != right.Mapped() {
			return false
		}
		ok := true
		left.ForEach(func(from, to PFN, p Perm) {
			w := right.Lookup(from, 0)
			if !w.Present || w.PFN != to || w.Perms != p {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPageTableClear(t *testing.T) {
	pt := NewPageTable()
	pt.Map(1, 2, PermRW)
	pt.Clear()
	if pt.Mapped() != 0 || pt.Lookup(1, 0).Present {
		t.Fatal("Clear left mappings behind")
	}
}

func TestPermString(t *testing.T) {
	if PermRW.String() != "rw-" {
		t.Fatalf("PermRW = %q", PermRW.String())
	}
	if PermRWX.String() != "rwx" {
		t.Fatalf("PermRWX = %q", PermRWX.String())
	}
	if Perm(0).String() != "---" {
		t.Fatalf("empty perm = %q", Perm(0).String())
	}
}

func TestTranslationChainMovesBytes(t *testing.T) {
	// End-to-end: write through a two-level translation chain and observe the
	// bytes land in host memory — the data path virtual-passthrough DMA uses.
	host := NewAddressSpace("host", 1<<24)
	l1 := NewPageTable() // L1 GPA → host
	l2 := NewPageTable() // L2 GPA → L1 GPA
	l1.Map(100, 200, PermRW)
	l2.Map(50, 100, PermRW)
	combined := l2.Combine(l1)
	l2addr := Addr(50*PageSize + 17)
	hostAddr, err := combined.Translate(l2addr, PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("dma payload")
	if err := host.Write(hostAddr, payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if err := host.Read(200*PageSize+17, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload did not arrive at translated host address")
	}
}

func TestHugePageMapping(t *testing.T) {
	pt := NewPageTable()
	if err := pt.MapHuge(512, 2048, PermRW); err != nil {
		t.Fatal(err)
	}
	// Any frame inside the 2 MiB span translates, with a 3-level walk.
	w := pt.Lookup(512+77, PermWrite)
	if !w.Present || w.PFN != 2048+77 {
		t.Fatalf("huge lookup = %+v", w)
	}
	if w.LevelsTouched != 3 {
		t.Fatalf("huge walk touched %d levels, want 3", w.LevelsTouched)
	}
	// Frames outside the span do not.
	if pt.Lookup(512+HugePageFrames, PermRead).Present {
		t.Fatal("lookup past the huge span translated")
	}
	a, err := pt.Translate(Addr(600)*PageSize+99, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if a != Addr(2048+600-512)*PageSize+99 {
		t.Fatalf("huge translate = %#x", uint64(a))
	}
}

func TestHugePageValidation(t *testing.T) {
	pt := NewPageTable()
	if err := pt.MapHuge(5, 2048, PermRW); err == nil {
		t.Fatal("unaligned source accepted")
	}
	if err := pt.MapHuge(512, 7, PermRW); err == nil {
		t.Fatal("unaligned target accepted")
	}
	// A huge mapping must not silently shadow existing 4K mappings.
	pt.Map(1024+3, 99, PermRW)
	if err := pt.MapHuge(1024, 4096, PermRW); err == nil {
		t.Fatal("huge mapping over existing 4K entries accepted")
	}
	// And 4K mappings in untouched regions coexist with huge ones.
	if err := pt.MapHuge(2048, 8192, PermRW); err != nil {
		t.Fatal(err)
	}
	pt.Map(4096, 1, PermRW)
	if !pt.Lookup(2048+1, PermRead).Present || !pt.Lookup(4096, PermRead).Present {
		t.Fatal("huge and 4K mappings do not coexist")
	}
}
