package virtio

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mem"
)

// setupQueue builds matching driver and device sides over one address space
// (identity DMA, the host-provided-device case).
func setupQueue(t *testing.T, size uint16) (*mem.AddressSpace, *DriverQueue, *Queue) {
	t.Helper()
	space := mem.NewAddressSpace("guest", 1<<22)
	dq, err := NewDriverQueue(space, 0x10000, size)
	if err != nil {
		t.Fatal(err)
	}
	desc, avail, used := dq.Rings()
	return space, dq, NewQueue(space, size, desc, avail, used)
}

func TestQueueLayoutSeparation(t *testing.T) {
	desc, avail, used := QueueLayout(0x1000, 256)
	if desc != 0x1000 {
		t.Fatal("desc table not at base")
	}
	if avail < desc+256*descSize {
		t.Fatal("avail overlaps descriptors")
	}
	if used < avail+4+2*256 {
		t.Fatal("used overlaps avail")
	}
	if uint64(used)%mem.PageSize != 0 {
		t.Fatal("used ring not page aligned")
	}
}

func TestSubmitPopRoundTrip(t *testing.T) {
	space, dq, q := setupQueue(t, 8)
	payload := []byte("hello nested world")
	if err := space.Write(0x40000, payload); err != nil {
		t.Fatal(err)
	}
	head, err := dq.Submit([]Descriptor{{Addr: 0x40000, Len: uint32(len(payload))}})
	if err != nil {
		t.Fatal(err)
	}
	pending, err := q.Pending()
	if err != nil || pending != 1 {
		t.Fatalf("pending = %d, %v", pending, err)
	}
	c, err := q.Pop()
	if err != nil {
		t.Fatal(err)
	}
	if c == nil || c.Head != head {
		t.Fatalf("popped %+v", c)
	}
	got, err := c.ReadPayload(space)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}
	// Empty after consuming.
	if c2, _ := q.Pop(); c2 != nil {
		t.Fatal("Pop on drained ring should return nil")
	}
}

func TestMultiDescriptorChain(t *testing.T) {
	space, dq, q := setupQueue(t, 8)
	space.Write(0x40000, []byte("part1-"))
	space.Write(0x41000, []byte("part2"))
	_, err := dq.Submit([]Descriptor{
		{Addr: 0x40000, Len: 6},
		{Addr: 0x41000, Len: 5},
		{Addr: 0x42000, Len: 64, DeviceWrite: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := q.Pop()
	if err != nil || c == nil {
		t.Fatalf("pop: %v", err)
	}
	if len(c.Descs) != 3 {
		t.Fatalf("chain has %d descriptors, want 3", len(c.Descs))
	}
	payload, _ := c.ReadPayload(space)
	if string(payload) != "part1-part2" {
		t.Fatalf("gathered %q", payload)
	}
	n, err := c.WritePayload(space, []byte("response"))
	if err != nil || n != 8 {
		t.Fatalf("WritePayload = %d, %v", n, err)
	}
	buf := make([]byte, 8)
	space.Read(0x42000, buf)
	if string(buf) != "response" {
		t.Fatal("device write did not land in writable buffer")
	}
}

func TestUsedRingCompletionFlow(t *testing.T) {
	space, dq, q := setupQueue(t, 8)
	space.Write(0x40000, []byte("x"))
	head, _ := dq.Submit([]Descriptor{{Addr: 0x40000, Len: 1}})
	if dq.InFlight() != 1 {
		t.Fatal("in-flight not tracked")
	}
	c, _ := q.Pop()
	if err := q.Push(c, 7); err != nil {
		t.Fatal(err)
	}
	comps, err := dq.Reap()
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 1 || comps[0].Head != head || comps[0].Len != 7 {
		t.Fatalf("completions = %+v", comps)
	}
	if dq.InFlight() != 0 {
		t.Fatal("completion did not clear in-flight")
	}
	if more, _ := dq.Reap(); len(more) != 0 {
		t.Fatal("double reap returned completions")
	}
}

func TestRingWraparound(t *testing.T) {
	space, dq, q := setupQueue(t, 4)
	space.Write(0x40000, []byte("y"))
	// Drive 3 ring sizes worth of traffic through a size-4 ring.
	for i := 0; i < 12; i++ {
		head, err := dq.Submit([]Descriptor{{Addr: 0x40000, Len: 1}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		c, err := q.Pop()
		if err != nil || c == nil || c.Head != head {
			t.Fatalf("pop %d: %+v %v", i, c, err)
		}
		if err := q.Push(c, 1); err != nil {
			t.Fatal(err)
		}
		comps, err := dq.Reap()
		if err != nil || len(comps) != 1 {
			t.Fatalf("reap %d: %v %v", i, comps, err)
		}
	}
}

func TestRingFullRejected(t *testing.T) {
	space, dq, _ := setupQueue(t, 2)
	space.Write(0x40000, []byte("z"))
	for i := 0; i < 2; i++ {
		if _, err := dq.Submit([]Descriptor{{Addr: 0x40000, Len: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dq.Submit([]Descriptor{{Addr: 0x40000, Len: 1}}); err == nil {
		t.Fatal("submit into full ring should fail")
	}
}

func TestEmptySubmitRejected(t *testing.T) {
	_, dq, _ := setupQueue(t, 4)
	if _, err := dq.Submit(nil); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestDoorbellDecode(t *testing.T) {
	d, err := NewDevice("net0", DeviceIDNet, ClassNetwork, 0xfe000000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if qi, ok := d.DoorbellQueue(0xfe000000); !ok || qi != 0 {
		t.Fatalf("queue 0 doorbell decoded as %d,%v", qi, ok)
	}
	if qi, ok := d.DoorbellQueue(d.DoorbellFor(1)); !ok || qi != 1 {
		t.Fatalf("queue 1 doorbell decoded as %d,%v", qi, ok)
	}
	if _, ok := d.DoorbellQueue(0xfe000000 + 2*DoorbellStride); ok {
		t.Fatal("address beyond queues decoded")
	}
	if _, ok := d.DoorbellQueue(0xfd000000); ok {
		t.Fatal("address below window decoded")
	}
	if d.Fn.Config.BAR(0) != 0xfe000000 {
		t.Fatal("BAR0 not programmed with doorbell base")
	}
}

func TestNetTransmitReceive(t *testing.T) {
	space := mem.NewAddressSpace("guest", 1<<22)
	nd, err := NewNetDevice("net0", 0xfe000000)
	if err != nil {
		t.Fatal(err)
	}

	// TX side.
	txq, err := NewDriverQueue(space, 0x10000, 8)
	if err != nil {
		t.Fatal(err)
	}
	desc, avail, used := txq.Rings()
	nd.AttachQueue(NetTXQueue, NewQueue(space, 8, desc, avail, used))
	// RX side.
	rxq, err := NewDriverQueue(space, 0x20000, 8)
	if err != nil {
		t.Fatal(err)
	}
	desc, avail, used = rxq.Rings()
	nd.AttachQueue(NetRXQueue, NewQueue(space, 8, desc, avail, used))

	frame := []byte("ethernet-frame-contents")
	space.Write(0x40000, frame)
	if _, err := txq.Submit([]Descriptor{{Addr: 0x40000, Len: uint32(len(frame))}}); err != nil {
		t.Fatal(err)
	}
	frames, err := nd.Transmit(space)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || !bytes.Equal(frames[0], frame) {
		t.Fatalf("transmit got %q", frames)
	}
	if nd.TxFrames != 1 {
		t.Fatal("TxFrames not counted")
	}

	// No RX buffer posted yet: frame drops.
	ok, err := nd.Receive(space, frame)
	if err != nil || ok {
		t.Fatalf("Receive without buffers = %v, %v", ok, err)
	}
	if _, err := rxq.Submit([]Descriptor{{Addr: 0x50000, Len: 2048, DeviceWrite: true}}); err != nil {
		t.Fatal(err)
	}
	ok, err = nd.Receive(space, frame)
	if err != nil || !ok {
		t.Fatalf("Receive = %v, %v", ok, err)
	}
	comps, _ := rxq.Reap()
	if len(comps) != 1 || comps[0].Len != uint32(len(frame)) {
		t.Fatalf("rx completion = %+v", comps)
	}
	buf := make([]byte, len(frame))
	space.Read(0x50000, buf)
	if !bytes.Equal(buf, frame) {
		t.Fatal("received frame bytes wrong")
	}
}

func TestBlkReadWrite(t *testing.T) {
	space := mem.NewAddressSpace("guest", 1<<22)
	disk := mem.NewAddressSpace("disk", 1<<22)
	bd, err := NewBlkDevice("blk0", 0xfd000000, disk)
	if err != nil {
		t.Fatal(err)
	}
	dq, err := NewDriverQueue(space, 0x10000, 8)
	if err != nil {
		t.Fatal(err)
	}
	desc, avail, used := dq.Rings()
	bd.AttachQueue(0, NewQueue(space, 8, desc, avail, used))

	// Write request: sector 4, one 512-byte buffer.
	hdr := MakeBlkRequest(BlkTOut, 4)
	space.Write(0x30000, hdr)
	payload := bytes.Repeat([]byte("D"), SectorSize)
	space.Write(0x31000, payload)
	_, err = dq.Submit([]Descriptor{
		{Addr: 0x30000, Len: blkHeaderSize},
		{Addr: 0x31000, Len: SectorSize},
		{Addr: 0x32000, Len: 1, DeviceWrite: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := bd.ProcessRequests(space)
	if err != nil || n != 1 {
		t.Fatalf("ProcessRequests = %d, %v", n, err)
	}
	diskBuf := make([]byte, SectorSize)
	disk.Read(4*SectorSize, diskBuf)
	if !bytes.Equal(diskBuf, payload) {
		t.Fatal("write did not reach disk sector 4")
	}
	if bd.Writes != 1 {
		t.Fatal("write not counted")
	}

	// Read it back: sector 4 into a device-writable buffer.
	space.Write(0x33000, MakeBlkRequest(BlkTIn, 4))
	_, err = dq.Submit([]Descriptor{
		{Addr: 0x33000, Len: blkHeaderSize},
		{Addr: 0x34000, Len: SectorSize, DeviceWrite: true},
		{Addr: 0x35000, Len: 1, DeviceWrite: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bd.ProcessRequests(space); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, SectorSize)
	space.Read(0x34000, got)
	if !bytes.Equal(got, payload) {
		t.Fatal("read returned wrong data")
	}
	var status [1]byte
	space.Read(0x35000, status[:])
	if status[0] != blkStatusOK {
		t.Fatalf("status = %d", status[0])
	}
	comps, _ := dq.Reap()
	if len(comps) != 2 {
		t.Fatalf("reaped %d completions, want 2", len(comps))
	}
}

func TestBlkShortChainRejected(t *testing.T) {
	space := mem.NewAddressSpace("guest", 1<<22)
	disk := mem.NewAddressSpace("disk", 1<<20)
	bd, err := NewBlkDevice("blk0", 0xfd000000, disk)
	if err != nil {
		t.Fatal(err)
	}
	dq, _ := NewDriverQueue(space, 0x10000, 8)
	desc, avail, used := dq.Rings()
	bd.AttachQueue(0, NewQueue(space, 8, desc, avail, used))
	space.Write(0x30000, MakeBlkRequest(BlkTOut, 0))
	dq.Submit([]Descriptor{{Addr: 0x30000, Len: blkHeaderSize}})
	if _, err := bd.ProcessRequests(space); err == nil {
		t.Fatal("short chain should error")
	}
}

// translatingDMA routes device accesses through a page table into a second
// space — the assigned-device data path.
type translatingDMA struct {
	table *mem.PageTable
	host  *mem.AddressSpace
}

// translate walks the table for the frame holding a, failing when no
// mapping grants the access, and keeps the page offset.
func (t *translatingDMA) translate(a mem.Addr, access mem.Perm) (mem.Addr, error) {
	w := t.table.Lookup(mem.PageOf(a), access)
	if !w.Present || !w.Perms.Has(access) {
		return 0, fmt.Errorf("no %s translation for %#x", access, uint64(a))
	}
	return w.PFN.Base() + a&(mem.PageSize-1), nil
}

func (t *translatingDMA) Read(a mem.Addr, b []byte) error {
	ha, err := t.translate(a, mem.PermRead)
	if err != nil {
		return err
	}
	return t.host.Read(ha, b)
}

func (t *translatingDMA) Write(a mem.Addr, b []byte) error {
	ha, err := t.translate(a, mem.PermWrite)
	if err != nil {
		return err
	}
	return t.host.Write(ha, b)
}

func TestQueueThroughTranslation(t *testing.T) {
	// Rings live in "guest" space; the device sees them through an IOMMU-like
	// translation into host space. Identity-map guest pages 0..N onto host
	// pages 256.. so a translation bug moves data visibly.
	host := mem.NewAddressSpace("host", 1<<24)
	table := mem.NewPageTable()
	for p := mem.PFN(0); p < 64; p++ {
		table.Map(p, p+256, mem.PermRW)
	}
	dma := &translatingDMA{table: table, host: host}

	// The driver addresses its own (guest) memory; materialize it in host
	// space through the same translation so both sides agree on bytes.
	guestView := dma
	dq, err := NewDriverQueue(guestView, 0x8000, 4)
	if err != nil {
		t.Fatal(err)
	}
	desc, avail, used := dq.Rings()
	q := NewQueue(dma, 4, desc, avail, used)

	payload := []byte("across the translation boundary")
	if err := guestView.Write(0x20000, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := dq.Submit([]Descriptor{{Addr: 0x20000, Len: uint32(len(payload))}}); err != nil {
		t.Fatal(err)
	}
	c, err := q.Pop()
	if err != nil || c == nil {
		t.Fatalf("pop through translation: %v", err)
	}
	got, err := c.ReadPayload(dma)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload through translation = %q", got)
	}
	// Verify the bytes physically live at the translated host address.
	raw := make([]byte, len(payload))
	host.Read(mem.Addr((256+0x20)*mem.PageSize), raw)
	if !bytes.Equal(raw, payload) {
		t.Fatal("payload not at translated host location")
	}
}

func TestIndirectDescriptorRejected(t *testing.T) {
	space, dq, q := setupQueue(t, 4)
	head, err := dq.Submit([]Descriptor{{Addr: 0x40000, Len: 16}})
	if err != nil {
		t.Fatal(err)
	}
	// The devices never offer VIRTIO_F_INDIRECT_DESC, so a guest that sets
	// the flag anyway must be refused rather than have its buffer parsed as
	// a descriptor table.
	desc, _, _ := dq.Rings()
	flags := desc + mem.Addr(head)*descSize + 12
	if err := space.Write(flags, []byte{descFlagIndirect, 0}); err != nil {
		t.Fatal(err)
	}
	if c, err := q.Pop(); err == nil {
		t.Fatalf("indirect descriptor accepted: %+v", c)
	}
}
