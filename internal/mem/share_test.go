package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestSharedFramesMatchReference drives seeded random interleavings of
// Write, SharePage and Read over three spaces, mirrored on three reference
// spaces where a share is a plain Read-then-Write copy of the page. Shares
// run in both directions, in chains, from never-written pages and over
// slots that already hold the same frame. After every step every page of
// every space must read as its reference, so a write on either side of a
// shared frame that showed on the other side fails the test.
func TestSharedFramesMatchReference(t *testing.T) {
	const npages = 12
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var sys, ref [3]*AddressSpace
		for i := range sys {
			name := fmt.Sprintf("as%d", i)
			sys[i] = NewAddressSpace(name, npages*PageSize)
			ref[i] = NewAddressSpace(name, npages*PageSize)
		}
		type share struct {
			src, dst int
			p, q     PFN
		}
		last := share{0, 1, 0, 0}
		pickPFN := func() PFN {
			if rng.Intn(16) == 0 {
				return npages // out of range: both sides must refuse
			}
			return PFN(rng.Intn(npages))
		}
		page, got, want := make([]byte, PageSize), make([]byte, PageSize), make([]byte, PageSize)
		for step := 0; step < 600; step++ {
			var op string
			switch k := rng.Intn(16); {
			case k < 5:
				s := rng.Intn(3)
				a := Addr(rng.Intn(npages*PageSize + 64))
				buf := make([]byte, 1+rng.Intn(PageSize+128))
				rng.Read(buf)
				op = fmt.Sprintf("Write(as%d, %#x, %d bytes)", s, a, len(buf))
				errS, errR := sys[s].Write(a, buf), ref[s].Write(a, buf)
				if (errS == nil) != (errR == nil) {
					t.Fatalf("seed %d step %d: %s: err %v, reference %v", seed, step, op, errS, errR)
				}
			case k < 8:
				s := rng.Intn(3)
				a := Addr(rng.Intn(npages*PageSize-8)) &^ 7
				var v [8]byte
				rng.Read(v[:])
				op = fmt.Sprintf("Write(as%d, %#x, 8 bytes)", s, a)
				if err := sys[s].Write(a, v[:]); err != nil {
					t.Fatal(err)
				}
				ref[s].Write(a, v[:])
			case k < 15:
				sh := share{rng.Intn(3), rng.Intn(3), pickPFN(), pickPFN()}
				switch rng.Intn(4) {
				case 0: // chain: the last destination becomes the source
					sh.src, sh.p = last.dst, last.q
				case 1: // back the other way
					sh = share{last.dst, last.src, last.q, last.p}
				case 2: // resend over a slot that already holds the frame
					sh = last
				}
				op = fmt.Sprintf("SharePage(as%d:%d -> as%d:%d)", sh.src, sh.p, sh.dst, sh.q)
				errS := SharePage(sys[sh.src], sh.p, sys[sh.dst], sh.q)
				errR := ref[sh.src].Read(sh.p.Base(), page)
				if errR == nil {
					errR = ref[sh.dst].Write(sh.q.Base(), page)
				}
				if (errS == nil) != (errR == nil) {
					t.Fatalf("seed %d step %d: %s: err %v, reference %v", seed, step, op, errS, errR)
				}
				if errS == nil {
					last = sh
				}
			default:
				s := rng.Intn(3)
				a := Addr(rng.Intn(npages * PageSize))
				n := 1 + rng.Intn(2*PageSize)
				got, want := make([]byte, n), make([]byte, n)
				op = fmt.Sprintf("Read(as%d, %#x, %d bytes)", s, a, len(got))
				errS, errR := sys[s].Read(a, got), ref[s].Read(a, want)
				if (errS == nil) != (errR == nil) || !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: %s differs from reference (err %v, %v)", seed, step, op, errS, errR)
				}
			}
			for i := range sys {
				for p := PFN(0); p < npages; p++ {
					sys[i].Read(p.Base(), got)
					ref[i].Read(p.Base(), want)
					if !bytes.Equal(got, want) {
						t.Fatalf("seed %d step %d: after %s, as%d page %d differs from reference", seed, step, op, i, p)
					}
				}
			}
		}
	}
}
