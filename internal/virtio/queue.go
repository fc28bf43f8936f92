// Package virtio implements the paravirtual I/O device model the paper's
// baseline (and virtual-passthrough, which re-assigns these very devices)
// is built on: split virtqueues laid out in guest memory exactly as the
// virtio specification defines them, and virtio-net / virtio-blk device
// models on top.
//
// The rings are real: descriptors, avail and used entries are encoded
// little-endian into an AddressSpace, and the device side reads them back
// through its DMA view (identity for a host-provided device, an IOMMU
// translation chain for an assigned one). A broken mapping therefore breaks
// data, not just accounting.
package virtio

import (
	"fmt"

	"repro/internal/mem"
)

// DMA is the device's view of memory. For a virtual device emulated by the
// host hypervisor this is the VM's address space directly; for a device
// assigned through an IOMMU it is a translating adapter.
type DMA interface {
	Read(a mem.Addr, buf []byte) error
	Write(a mem.Addr, buf []byte) error
}

// Ring layout constants from the virtio specification (split virtqueue).
const (
	descSize = 16 // u64 addr, u32 len, u16 flags, u16 next

	descFlagNext  = 1 << 0
	descFlagWrite = 1 << 1 // device-writable buffer
	// descFlagIndirect is VIRTIO_F_INDIRECT_DESC's flag. No device offers
	// that feature, so a descriptor carrying it is rejected.
	descFlagIndirect = 1 << 2
)

// Queue is the device-side state of one split virtqueue.
type Queue struct {
	size      uint16
	dma       DMA
	descAddr  mem.Addr
	availAddr mem.Addr
	usedAddr  mem.Addr
	lastAvail uint16 // next avail index the device will consume
	usedIdx   uint16 // device's published used index
}

// QueueLayout computes the ring component addresses for a queue of the given
// size placed at base, each component page-aligned as drivers allocate them.
func QueueLayout(base mem.Addr, size uint16) (desc, avail, used mem.Addr) {
	desc = base
	availOff := alignUp(uint64(size)*descSize, 4)
	avail = base + mem.Addr(availOff)
	usedOff := alignUp(availOff+4+2*uint64(size), mem.PageSize)
	used = base + mem.Addr(usedOff)
	return desc, avail, used
}

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

// NewQueue attaches device-side queue state to rings at the given addresses.
func NewQueue(dma DMA, size uint16, desc, avail, used mem.Addr) *Queue {
	return &Queue{size: size, dma: dma, descAddr: desc, availAddr: avail, usedAddr: used}
}

// Size returns the ring size.
func (q *Queue) Size() uint16 { return q.size }

func (q *Queue) readU16(a mem.Addr) (uint16, error) {
	var b [2]byte
	if err := q.dma.Read(a, b[:]); err != nil {
		return 0, err
	}
	return uint16(b[0]) | uint16(b[1])<<8, nil
}

func (q *Queue) writeU16(a mem.Addr, v uint16) error {
	return q.dma.Write(a, []byte{byte(v), byte(v >> 8)})
}

func (q *Queue) writeU32(a mem.Addr, v uint32) error {
	return q.dma.Write(a, []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
}

// Descriptor is one decoded ring descriptor.
type Descriptor struct {
	Addr        mem.Addr
	Len         uint32
	DeviceWrite bool
	hasNext     bool
	next        uint16
}

func (q *Queue) readDesc(i uint16) (Descriptor, error) {
	if i >= q.size {
		return Descriptor{}, fmt.Errorf("virtio: descriptor index %d out of range (size %d)", i, q.size)
	}
	var b [descSize]byte
	if err := q.dma.Read(q.descAddr+mem.Addr(i)*descSize, b[:]); err != nil {
		return Descriptor{}, err
	}
	var addr uint64
	for k := 7; k >= 0; k-- {
		addr = addr<<8 | uint64(b[k])
	}
	l := uint32(b[8]) | uint32(b[9])<<8 | uint32(b[10])<<16 | uint32(b[11])<<24
	flags := uint16(b[12]) | uint16(b[13])<<8
	next := uint16(b[14]) | uint16(b[15])<<8
	if flags&descFlagIndirect != 0 {
		return Descriptor{}, fmt.Errorf("virtio: descriptor %d is indirect, a feature the device does not offer", i)
	}
	return Descriptor{
		Addr:        mem.Addr(addr),
		Len:         l,
		DeviceWrite: flags&descFlagWrite != 0,
		hasNext:     flags&descFlagNext != 0,
		next:        next,
	}, nil
}

// Chain is a popped descriptor chain: the unit of one I/O request.
type Chain struct {
	Head  uint16
	Descs []Descriptor
}

// ReadPayload gathers the chain's device-readable buffers through DMA.
func (c *Chain) ReadPayload(dma DMA) ([]byte, error) {
	var out []byte
	for _, d := range c.Descs {
		if d.DeviceWrite {
			continue
		}
		buf := make([]byte, d.Len)
		if err := dma.Read(d.Addr, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out, nil
}

// WritePayload scatters data into the chain's device-writable buffers,
// returning the number of bytes written.
func (c *Chain) WritePayload(dma DMA, data []byte) (int, error) {
	written := 0
	for _, d := range c.Descs {
		if !d.DeviceWrite || len(data) == 0 {
			continue
		}
		n := int(d.Len)
		if n > len(data) {
			n = len(data)
		}
		if err := dma.Write(d.Addr, data[:n]); err != nil {
			return written, err
		}
		written += n
		data = data[n:]
	}
	return written, nil
}

// AvailIdx reads the driver's published avail index.
func (q *Queue) AvailIdx() (uint16, error) {
	return q.readU16(q.availAddr + 2)
}

// Pop takes the next available descriptor chain, or nil when the ring is
// empty — what a backend does in response to a doorbell kick.
func (q *Queue) Pop() (*Chain, error) {
	avail, err := q.AvailIdx()
	if err != nil {
		return nil, err
	}
	if q.lastAvail == avail {
		return nil, nil
	}
	slot := q.lastAvail % q.size
	head, err := q.readU16(q.availAddr + 4 + mem.Addr(slot)*2)
	if err != nil {
		return nil, err
	}
	q.lastAvail++
	c := &Chain{Head: head}
	for i, hops := head, 0; ; hops++ {
		if hops > int(q.size) {
			return nil, fmt.Errorf("virtio: descriptor chain loop at head %d", head)
		}
		d, err := q.readDesc(i)
		if err != nil {
			return nil, err
		}
		c.Descs = append(c.Descs, d)
		if !d.hasNext {
			break
		}
		i = d.next
	}
	return c, nil
}

// Push returns a completed chain to the driver via the used ring — the step
// after which the device raises its completion interrupt.
func (q *Queue) Push(c *Chain, writtenLen uint32) error {
	slot := q.usedIdx % q.size
	entry := q.usedAddr + 4 + mem.Addr(slot)*8
	if err := q.writeU32(entry, uint32(c.Head)); err != nil {
		return err
	}
	if err := q.writeU32(entry+4, writtenLen); err != nil {
		return err
	}
	q.usedIdx++
	return q.writeU16(q.usedAddr+2, q.usedIdx)
}

// Pending reports how many chains the driver has published that the device
// has not yet popped.
func (q *Queue) Pending() (int, error) {
	avail, err := q.AvailIdx()
	if err != nil {
		return 0, err
	}
	return int(avail - q.lastAvail), nil
}

// DriverQueue is the guest-driver side of the same ring: it allocates
// descriptors, publishes avail entries, and reaps used entries. It writes
// directly into the guest's own address space (no translation: the driver
// addresses its own memory).
type DriverQueue struct {
	size     uint16
	space    DMA
	desc     mem.Addr
	avail    mem.Addr
	used     mem.Addr
	freeHead uint16
	availIdx uint16
	lastUsed uint16
	inFlight map[uint16][]Descriptor
}

// NewDriverQueue initializes ring memory at base inside space and returns the
// driver-side handle. The space is usually the guest's own AddressSpace; any
// DMA view works, which lets tests drive rings through translation chains.
func NewDriverQueue(space DMA, base mem.Addr, size uint16) (*DriverQueue, error) {
	desc, avail, used := QueueLayout(base, size)
	d := &DriverQueue{
		size: size, space: space,
		desc: desc, avail: avail, used: used,
		inFlight: make(map[uint16][]Descriptor),
	}
	// Zero the avail/used indexes.
	if err := space.Write(avail, []byte{0, 0, 0, 0}); err != nil {
		return nil, err
	}
	if err := space.Write(used, []byte{0, 0, 0, 0}); err != nil {
		return nil, err
	}
	return d, nil
}

// Rings returns the component addresses for wiring up the device side.
func (d *DriverQueue) Rings() (desc, avail, used mem.Addr) { return d.desc, d.avail, d.used }

// Size returns the ring size.
func (d *DriverQueue) Size() uint16 { return d.size }

func (d *DriverQueue) writeDesc(i uint16, desc Descriptor) error {
	var b [descSize]byte
	for k := 0; k < 8; k++ {
		b[k] = byte(uint64(desc.Addr) >> (8 * k))
	}
	b[8], b[9], b[10], b[11] = byte(desc.Len), byte(desc.Len>>8), byte(desc.Len>>16), byte(desc.Len>>24)
	var flags uint16
	if desc.DeviceWrite {
		flags |= descFlagWrite
	}
	if desc.hasNext {
		flags |= descFlagNext
	}
	b[12], b[13] = byte(flags), byte(flags>>8)
	b[14], b[15] = byte(desc.next), byte(desc.next>>8)
	return d.space.Write(d.desc+mem.Addr(i)*descSize, b[:])
}

// Submit publishes a descriptor chain built from bufs and returns its head
// index. Descriptor indexes are allocated round-robin; the driver must not
// exceed the ring size in flight.
func (d *DriverQueue) Submit(bufs []Descriptor) (uint16, error) {
	if len(bufs) == 0 {
		return 0, fmt.Errorf("virtio: empty chain")
	}
	if len(d.inFlight)+len(bufs) > int(d.size) {
		return 0, fmt.Errorf("virtio: ring full (%d in flight, size %d)", len(d.inFlight), d.size)
	}
	head := d.freeHead
	for i := range bufs {
		idx := (head + uint16(i)) % d.size
		desc := bufs[i]
		if i < len(bufs)-1 {
			desc.hasNext = true
			desc.next = (idx + 1) % d.size
		}
		if err := d.writeDesc(idx, desc); err != nil {
			return 0, err
		}
	}
	d.freeHead = (head + uint16(len(bufs))) % d.size
	d.inFlight[head] = bufs
	// Publish in the avail ring, then bump the index (the ordering the spec
	// requires; the simulator is single-threaded but tests assert layout).
	slot := d.availIdx % d.size
	if err := d.space.Write(d.avail+4+mem.Addr(slot)*2, []byte{byte(head), byte(head >> 8)}); err != nil {
		return 0, err
	}
	d.availIdx++
	return head, d.space.Write(d.avail+2, []byte{byte(d.availIdx), byte(d.availIdx >> 8)})
}

// Completion is one reaped used-ring entry.
type Completion struct {
	Head uint16
	Len  uint32
}

// Reap collects completions published by the device since the last call.
func (d *DriverQueue) Reap() ([]Completion, error) {
	var b [2]byte
	if err := d.space.Read(d.used+2, b[:]); err != nil {
		return nil, err
	}
	usedIdx := uint16(b[0]) | uint16(b[1])<<8
	var out []Completion
	for d.lastUsed != usedIdx {
		slot := d.lastUsed % d.size
		var e [8]byte
		if err := d.space.Read(d.used+4+mem.Addr(slot)*8, e[:]); err != nil {
			return nil, err
		}
		head := uint16(uint32(e[0]) | uint32(e[1])<<8)
		l := uint32(e[4]) | uint32(e[5])<<8 | uint32(e[6])<<16 | uint32(e[7])<<24
		delete(d.inFlight, head)
		out = append(out, Completion{Head: head, Len: l})
		d.lastUsed++
	}
	return out, nil
}

// InFlight returns the number of unreaped chains.
func (d *DriverQueue) InFlight() int { return len(d.inFlight) }
