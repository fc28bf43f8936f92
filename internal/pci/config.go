// Package pci models the PCI device plumbing virtual-passthrough depends on:
// configuration space with a standard header and a capability chain, driver
// binding, SR-IOV virtual functions, and the paper's new *migration
// capability* (Section 3.6) through which a guest hypervisor asks the host
// hypervisor to capture virtual-device state and redirect dirty-page logging.
//
// Virtual-passthrough works precisely because the host hypervisor's virtual
// I/O devices conform to the physical PCI interface specification, so a guest
// hypervisor's existing passthrough framework can assign them without
// modification. This package is that conformance layer.
package pci

import "fmt"

// Standard configuration-space register offsets.
const (
	offVendorID  = 0x00
	offDeviceID  = 0x02
	offStatus    = 0x06
	offRevision  = 0x08
	offClassCode = 0x09
	offCapPtr    = 0x34

	// statusCapList advertises a capability chain.
	statusCapList = 1 << 4
)

// CapID identifies a PCI capability.
type CapID uint8

const (
	CapPM     CapID = 0x01
	CapMSI    CapID = 0x05
	CapVendor CapID = 0x09
	CapPCIe   CapID = 0x10
	// CapSRIOV lives in PCIe extended config space on hardware; the model
	// keeps all capabilities in one chain for simplicity.
	CapSRIOV CapID = 0x20
	// CapMigration is the paper's new capability: registers letting a guest
	// hypervisor drive host-side device-state capture and dirty logging.
	CapMigration CapID = 0x21
)

func (c CapID) String() string {
	switch c {
	case CapPM:
		return "PM"
	case CapMSI:
		return "MSI"
	case CapVendor:
		return "VENDOR"
	case CapPCIe:
		return "PCIe"
	case CapSRIOV:
		return "SR-IOV"
	case CapMigration:
		return "MIGRATION"
	}
	return fmt.Sprintf("CAP_%#02x", uint8(c))
}

// ConfigSpace is a 256-byte PCI configuration space with a type-0 header and
// a capability chain. Reads and writes move real bytes so software that walks
// the chain (a guest hypervisor's passthrough framework, the migration code)
// exercises the same layout real PCI software would.
type ConfigSpace struct {
	bytes   [256]byte
	nextCap int // next free offset for a capability
}

// NewConfigSpace builds a config space with the given identity.
func NewConfigSpace(vendor, device uint16, class uint32) *ConfigSpace {
	c := &ConfigSpace{nextCap: 0x40}
	c.WriteU16(offVendorID, vendor)
	c.WriteU16(offDeviceID, device)
	c.bytes[offRevision] = 1
	c.bytes[offClassCode] = byte(class)
	c.bytes[offClassCode+1] = byte(class >> 8)
	c.bytes[offClassCode+2] = byte(class >> 16)
	return c
}

// ReadU16 reads a little-endian 16-bit register.
func (c *ConfigSpace) ReadU16(off int) uint16 {
	return uint16(c.bytes[off]) | uint16(c.bytes[off+1])<<8
}

// ReadU32 reads a little-endian 32-bit register.
func (c *ConfigSpace) ReadU32(off int) uint32 {
	return uint32(c.ReadU16(off)) | uint32(c.ReadU16(off+2))<<16
}

// WriteU16 writes a little-endian 16-bit register.
func (c *ConfigSpace) WriteU16(off int, v uint16) {
	c.bytes[off] = byte(v)
	c.bytes[off+1] = byte(v >> 8)
}

// WriteU32 writes a little-endian 32-bit register.
func (c *ConfigSpace) WriteU32(off int, v uint32) {
	c.WriteU16(off, uint16(v))
	c.WriteU16(off+2, uint16(v>>16))
}

// VendorID returns the device's vendor identifier.
func (c *ConfigSpace) VendorID() uint16 { return c.ReadU16(offVendorID) }

// DeviceID returns the device identifier.
func (c *ConfigSpace) DeviceID() uint16 { return c.ReadU16(offDeviceID) }

// AddCapability appends a capability of the given body size (excluding the
// 2-byte header) to the chain and returns the offset of its header. The
// 256-byte space holds a bounded number of capabilities, so exhaustion is
// reachable from configuration choices (many devices on one function, fuzzed
// capability lists) and reports an error rather than crashing.
func (c *ConfigSpace) AddCapability(id CapID, bodySize int) (int, error) {
	if bodySize < 0 {
		return 0, fmt.Errorf("pci: negative capability body size %d", bodySize)
	}
	size := 2 + bodySize
	if c.nextCap+size > len(c.bytes) {
		return 0, fmt.Errorf("pci: config space exhausted adding %v (%d bytes at %#x)", id, size, c.nextCap)
	}
	off := c.nextCap
	c.nextCap += (size + 3) &^ 3 // keep capabilities dword aligned
	c.bytes[off] = byte(id)
	c.bytes[off+1] = 0 // next pointer: end of chain
	// Link into the chain.
	if c.bytes[offCapPtr] == 0 {
		c.bytes[offCapPtr] = byte(off)
	} else {
		p := int(c.bytes[offCapPtr])
		for c.bytes[p+1] != 0 {
			p = int(c.bytes[p+1])
		}
		c.bytes[p+1] = byte(off)
	}
	c.WriteU16(offStatus, c.ReadU16(offStatus)|statusCapList)
	return off, nil
}

// FindCapability walks the chain for a capability, returning its header
// offset and whether it was found — the scan any PCI driver performs.
func (c *ConfigSpace) FindCapability(id CapID) (int, bool) {
	if c.ReadU16(offStatus)&statusCapList == 0 {
		return 0, false
	}
	seen := 0
	for p := int(c.bytes[offCapPtr]); p != 0; p = int(c.bytes[p+1]) {
		if CapID(c.bytes[p]) == id {
			return p, true
		}
		if seen++; seen > 48 {
			break // corrupt chain guard
		}
	}
	return 0, false
}
