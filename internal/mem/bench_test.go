package mem

import "testing"

func BenchmarkPageTableMap(b *testing.B) {
	pt := NewPageTable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pt.Map(PFN(i&0xfffff), PFN(i), PermRW)
	}
}

func BenchmarkPageTableLookup(b *testing.B) {
	pt := NewPageTable()
	for i := 0; i < 1<<16; i++ {
		pt.Map(PFN(i), PFN(i+1000), PermRW)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pt.Lookup(PFN(i&0xffff), PermRead)
	}
}

func BenchmarkAddressSpaceWrite(b *testing.B) {
	as := NewAddressSpace("bench", 1<<30)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := as.Write(Addr((i&0xff)*PageSize), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewAddressSpace builds a space the size of the modeled 480 GiB
// backing store: the per-space cost every stack build pays before any page
// is written.
func BenchmarkNewAddressSpace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if as := NewAddressSpace("ssd", 480<<30); as.NumPages() == 0 {
			b.Fatal("empty space")
		}
	}
}
