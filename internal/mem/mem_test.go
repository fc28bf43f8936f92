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

// builtSpace keeps each space the allocation test builds reachable, so the
// compiler cannot place it on the stack and the count covers the whole space.
var builtSpace *AddressSpace

// TestNewAddressSpaceAllocatesNoIndex holds that building an address space
// costs a few words, not an index over its pages: a space the size of the
// modeled 480 GiB backing store is built once per stack, and write tracking
// belongs to the VM levels and the VP DMA log, not to the space.
func TestNewAddressSpaceAllocatesNoIndex(t *testing.T) {
	defer func() { builtSpace = nil }()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			builtSpace = NewAddressSpace("ssd", 480<<30)
		}
	})
	if got := r.AllocedBytesPerOp(); got >= 1024 {
		t.Fatalf("NewAddressSpace(480 GiB) allocates %d bytes, want < 1024", got)
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

// TestBitmapMatchesReference drives random Set/Clear/Reset sequences
// against a map-backed reference, over lengths that are multiples of
// neither 64 nor chunkBits, hammering the chunk and length boundaries.
func TestBitmapMatchesReference(t *testing.T) {
	lengths := []uint64{1, 10, 65, chunkBits - 1, chunkBits + 1, 2*chunkBits + 37, 3*chunkBits - 5}
	for li, n := range lengths {
		rng := rand.New(rand.NewSource(int64(li) + 1))
		probes := []uint64{0, 63, 64, chunkBits - 1, chunkBits, chunkBits + 1, n - 1, n, n + 1}
		pick := func() uint64 {
			if rng.Intn(2) == 0 {
				return probes[rng.Intn(len(probes))]
			}
			return uint64(rng.Int63n(int64(n + 70)))
		}
		b, r := NewBitmap(n), &refBitmap{n: n, bits: map[uint64]bool{}}
		for step := 0; step < 400; step++ {
			var op string
			switch k := rng.Intn(18); {
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
			default:
				op = "Reset"
				b.Reset()
				r.bits = map[uint64]bool{}
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
