package pci

import "fmt"

// The migration capability (paper Section 3.6) is a vendor-defined PCI
// capability the host hypervisor adds to the virtual I/O devices it hands out
// for virtual-passthrough. Because passthrough removes the guest hypervisor
// from the I/O path, the guest hypervisor can no longer see device state or
// DMA-dirtied pages; these registers let it ask the *host* hypervisor —
// standardized, so any guest hypervisor can interoperate with any host — to:
//
//   - capture the device's state into a buffer the guest hypervisor transfers
//     opaquely to the destination, and
//   - start/stop logging of pages dirtied by device DMA, reported through the
//     same dirty-log machinery the host already uses for its own migrations.
//
// Register layout (offsets relative to the capability header):
//
//	+0x02  u16 CTRL     bit0 = dirty-log enable, bit1 = capture state (w1c)
//	+0x04  u32 STATUS   bit0 = capture complete, bit1 = dirty log active
//	+0x08  u32 STATE_SZ size of the captured state blob
const (
	migOffCtrl    = 2
	migOffStatus  = 4
	migOffStateSz = 8

	// MigCtrlDirtyLog enables DMA dirty-page logging.
	MigCtrlDirtyLog uint16 = 1 << 0
	// MigCtrlCapture requests a device-state capture; it reads back as zero
	// once the capture completes (write-one-to-trigger).
	MigCtrlCapture uint16 = 1 << 1

	// MigStatusCaptured indicates a completed state capture.
	MigStatusCaptured uint32 = 1 << 0
	// MigStatusLogging indicates dirty logging is active.
	MigStatusLogging uint32 = 1 << 1
)

// MigrationOps is what the host hypervisor wires behind the capability: the
// existing state-encapsulation and dirty-logging machinery the paper says the
// capability merely connects to.
type MigrationOps interface {
	// CaptureState serializes the device state in the host's own format; the
	// guest hypervisor treats it as opaque bytes. A failure surfaces to the
	// guest as a failed CTRL write (the capture bit never self-clears into a
	// completed status).
	CaptureState() ([]byte, error)
	// SetDirtyLogging turns DMA dirty-page logging on or off.
	SetDirtyLogging(enable bool)
}

// MigrationCap binds the capability registers of a function to host-side
// operations.
type MigrationCap struct {
	fn    *Function
	off   int
	ops   MigrationOps
	state []byte
}

// AddMigrationCap installs the migration capability on a virtual function
// and returns the control handle the host keeps.
func AddMigrationCap(fn *Function, ops MigrationOps) (*MigrationCap, error) {
	off, err := fn.Config.AddCapability(CapMigration, 12)
	if err != nil {
		return nil, err
	}
	return &MigrationCap{fn: fn, off: off, ops: ops}, nil
}

// GuestWriteCtrl emulates a guest hypervisor write to the CTRL register; the
// host hypervisor intercepts config-space writes to virtual devices, so this
// is where the capability's behavior lives.
func (m *MigrationCap) GuestWriteCtrl(v uint16) error {
	if m.ops == nil {
		return fmt.Errorf("pci: migration capability on %s has no host ops", m.fn.Name)
	}
	cfg := m.fn.Config
	status := cfg.ReadU32(m.off + migOffStatus)
	if v&MigCtrlDirtyLog != 0 {
		m.ops.SetDirtyLogging(true)
		status |= MigStatusLogging
	} else {
		m.ops.SetDirtyLogging(false)
		status &^= MigStatusLogging
	}
	if v&MigCtrlCapture != 0 {
		state, err := m.ops.CaptureState()
		if err != nil {
			return fmt.Errorf("pci: capturing state of %s: %w", m.fn.Name, err)
		}
		m.state = state
		cfg.WriteU32(m.off+migOffStateSz, uint32(len(m.state)))
		status |= MigStatusCaptured
	}
	cfg.WriteU16(m.off+migOffCtrl, v&^MigCtrlCapture) // capture bit self-clears
	cfg.WriteU32(m.off+migOffStatus, status)
	return nil
}

// CapturedState returns the blob from the last capture, which the guest
// hypervisor ships to the destination.
func (m *MigrationCap) CapturedState() []byte { return m.state }
