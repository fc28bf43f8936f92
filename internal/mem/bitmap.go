package mem

import "math/bits"

// chunkBits is the number of bits one lazily allocated chunk holds: 32,768
// bits, one 4 KiB array of words. A bitmap over a 480 GiB space costs an
// index of pointers until its first Set; afterwards only the chunks that
// hold set bits are backed.
const (
	chunkBits  = 1 << 15
	chunkWords = chunkBits / 64
)

// Bitmap is a fixed-size bit set used for written sets, dirty-page logs
// and shared-frame flags. It is sparse: storage is allocated one chunk at a time, by the first
// Set landing in that chunk, so a bitmap over a large address space costs
// what its set bits touch. The zero value is unusable; construct with
// NewBitmap.
type Bitmap struct {
	n      uint64
	chunks []*[chunkWords]uint64 // nil until a bit in the chunk is set
}

// NewBitmap returns a bitmap holding n bits, all clear.
func NewBitmap(n uint64) *Bitmap {
	return &Bitmap{n: n, chunks: make([]*[chunkWords]uint64, (n+chunkBits-1)/chunkBits)}
}

// Len returns the bitmap's capacity in bits.
func (b *Bitmap) Len() uint64 { return b.n }

// Set marks bit i. Out-of-range indexes are ignored so callers logging
// against a resized space fail soft.
func (b *Bitmap) Set(i uint64) {
	if i >= b.n {
		return
	}
	c := b.chunks[i/chunkBits]
	if c == nil {
		c = new([chunkWords]uint64)
		b.chunks[i/chunkBits] = c
	}
	c[i%chunkBits/64] |= 1 << (i % 64)
}

// Clear unmarks bit i.
func (b *Bitmap) Clear(i uint64) {
	if i < b.n {
		if c := b.chunks[i/chunkBits]; c != nil {
			c[i%chunkBits/64] &^= 1 << (i % 64)
		}
	}
}

// Test reports whether bit i is set.
func (b *Bitmap) Test(i uint64) bool {
	if i >= b.n {
		return false
	}
	c := b.chunks[i/chunkBits]
	return c != nil && c[i%chunkBits/64]&(1<<(i%64)) != 0
}

// Count returns the number of set bits.
func (b *Bitmap) Count() uint64 {
	var n uint64
	for _, c := range b.chunks {
		if c == nil {
			continue
		}
		for _, w := range c {
			n += uint64(bits.OnesCount64(w))
		}
	}
	return n
}

// ForEach calls fn for every set bit, in ascending order.
func (b *Bitmap) ForEach(fn func(i uint64)) {
	for ci, c := range b.chunks {
		if c == nil {
			continue
		}
		base := uint64(ci) * chunkBits
		for wi, w := range c {
			for w != 0 {
				bit := bits.TrailingZeros64(w)
				fn(base + uint64(wi)*64 + uint64(bit))
				w &^= 1 << bit
			}
		}
	}
}

// PFNs returns the set bits as page frame numbers, in ascending order, in a
// slice sized by Count. It returns nil when no bit is set.
func (b *Bitmap) PFNs() []PFN {
	n := b.Count()
	if n == 0 {
		return nil
	}
	out := make([]PFN, 0, n)
	b.ForEach(func(i uint64) { out = append(out, PFN(i)) })
	return out
}

// Reset clears every bit. Allocated chunks are zeroed in place and kept, so
// a dirty log drained every pre-copy round reuses the chunks its working set
// already touched.
func (b *Bitmap) Reset() {
	for _, c := range b.chunks {
		if c != nil {
			*c = [chunkWords]uint64{}
		}
	}
}
