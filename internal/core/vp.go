package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/apic"
	"repro/internal/hyper"
	"repro/internal/mem"
	"repro/internal/pci"
	"repro/internal/vmx"
)

// VPState is the host-side state of one virtual-passthrough assignment: a
// host-provided virtio device handed through the guest hypervisors'
// passthrough frameworks to a nested VM.
type VPState struct {
	Dev *hyper.AssignedDevice
	// Shadow is the combined translation (nested-VM guest-physical → L1
	// guest-physical) the host folds the vIOMMU chain into; it is the table
	// the L1 virtual IOMMU consults on the data path (paper Figure 6).
	Shadow *mem.PageTable
	// HostDirty logs nested-VM pages dirtied by device DMA — state only the
	// host can see, exported to guest hypervisors through the PCI migration
	// capability.
	HostDirty *mem.Bitmap
	// DirtyLogging mirrors the migration capability's control bit.
	DirtyLogging bool
	// MigCap is the PCI migration capability instance on the device.
	MigCap *pci.MigrationCap
	// Kicks counts doorbell kicks handled by the host for this device.
	Kicks uint64

	holder *hyper.VM // the L1 VM whose memory the shadow table resolves into
	vm     *hyper.VM
}

// AttachVirtualPassthrough performs the paper's Section 3.1 configuration
// for a device of the given class: the host creates a PCI-conformant virtio
// device, every intermediate hypervisor exposes a virtual IOMMU and passes
// the device up through its standard passthrough framework, and the nested
// VM receives it as an ordinary PCI device. No guest hypervisor ever
// emulates it.
func (d *DVH) AttachVirtualPassthrough(vm *hyper.VM, class hyper.DeviceClass, name string) (*hyper.AssignedDevice, error) {
	if !d.Features.Has(FeatureVirtualPassthrough) {
		return nil, fmt.Errorf("dvh: virtual-passthrough feature not enabled")
	}
	if vm.Level < 2 {
		return nil, fmt.Errorf("dvh: virtual-passthrough assigns to nested VMs; %s is level %d (use a plain virtual device)", vm.Name, vm.Level)
	}
	posted := d.Features.Has(FeatureVIOMMUPostedInterrupts)

	// Every VM from L1 up to (but excluding) the target needs a virtual
	// IOMMU so its hypervisor can pass the device onward, with posting when
	// the feature asks for it.
	chain := stackVMs(vm)
	for _, cur := range chain[:len(chain)-1] {
		if !cur.HasVIOMMU() || posted && !cur.Caps.Has(vmx.CapIOMMUPostedInterrupts) {
			cur.ProvideVIOMMU(posted)
		}
	}

	// The guest hypervisors' passthrough dance: the device is bound to the
	// vfio framework at every level it transits, never to an emulation
	// driver.
	fn := hyper.NewVirtioFunction(name, class)
	if err := fn.Bind("vfio-pci"); err != nil {
		return nil, err
	}
	dev := &hyper.AssignedDevice{
		Name:           name,
		Class:          class,
		VM:             vm,
		Fn:             fn,
		ProviderLevel:  0,
		VP:             true,
		Doorbell:       vm.AllocMMIO(mem.PageSize),
		DoorbellSize:   mem.PageSize,
		IRQ:            apic.VectorVirtioIRQ,
		PostedDelivery: posted,
	}
	vp := &VPState{
		Dev:       dev,
		Shadow:    mem.NewPageTable(),
		HostDirty: mem.NewBitmap(uint64(vm.NumPages)),
		holder:    chain[0],
		vm:        vm,
	}
	dev.DMAView = &vpDMA{vp: vp}
	migCap, err := pci.AddMigrationCap(fn, &vpMigOps{vp: vp})
	if err != nil {
		return nil, err
	}
	vp.MigCap = migCap
	vm.Devices = append(vm.Devices, dev)
	d.vp[dev] = vp
	return dev, nil
}

// stackVMs returns the VM chain from level 1 up to vm.
func stackVMs(vm *hyper.VM) []*hyper.VM {
	var rev []*hyper.VM
	for cur := vm; cur != nil; {
		rev = append(rev, cur)
		if cur.Owner.HostVM == nil {
			break
		}
		cur = cur.Owner.HostVM
	}
	out := make([]*hyper.VM, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// VPStateOf returns the VP state for a device, if it is a VP assignment.
func (d *DVH) VPStateOf(dev *hyper.AssignedDevice) (*VPState, bool) {
	vp, ok := d.vp[dev]
	return vp, ok
}

// ensureShadow resolves a nested-VM frame to an L1 frame, walking the EPT
// chain down to L1 the way the guest hypervisors' vIOMMU mappings would as
// the nested VM's driver maps DMA buffers, and folds the result into the
// combined shadow table.
func (vp *VPState) ensureShadow(p mem.PFN) (mem.PFN, error) {
	if w := vp.Shadow.Lookup(p, 0); w.Present {
		return w.PFN, nil
	}
	frame := p
	for cur := vp.vm; cur.Level > 1; cur = cur.Owner.HostVM {
		target, err := cur.EnsureMapped(frame)
		if err != nil {
			return 0, err
		}
		frame = target
	}
	vp.Shadow.Map(p, frame, mem.PermRW)
	return frame, nil
}

// vpDMA is the device's memory view under virtual-passthrough: nested-VM
// addresses translate through the combined shadow table into L1 memory, and
// DMA writes are logged host-side (invisible to guest hypervisors except via
// the migration capability).
type vpDMA struct {
	vp *VPState
}

func (v *vpDMA) Write(a mem.Addr, buf []byte) error {
	for off := 0; off < len(buf); {
		step := min(mem.PageSize-int(a&(mem.PageSize-1)), len(buf)-off)
		p := mem.PageOf(a)
		l1f, err := v.vp.ensureShadow(p)
		if err != nil {
			return err
		}
		v.vp.HostDirty.Set(uint64(p))
		if err := v.vp.holder.Memory().Write(l1f.Base()+(a&(mem.PageSize-1)), buf[off:off+step]); err != nil {
			return err
		}
		a += mem.Addr(step)
		off += step
	}
	return nil
}

// CollectDMADirty drains the DMA dirty log — the data the migration
// capability exposes to the guest hypervisor per pre-copy round.
func (vp *VPState) CollectDMADirty() []mem.PFN {
	out := vp.HostDirty.PFNs()
	vp.HostDirty.Reset()
	return out
}

// vpDeviceState is the serialized device state the host captures for the
// guest hypervisor; the guest treats it as an opaque blob.
type vpDeviceState struct {
	Name     string `json:"name"`
	Kicks    uint64 `json:"kicks"`
	TxFrames uint64 `json:"tx_frames"`
	RxFrames uint64 `json:"rx_frames"`
	Reads    uint64 `json:"reads"`
	Writes   uint64 `json:"writes"`
}

// vpMigOps wires the PCI migration capability to the host's existing
// state-encapsulation and dirty-logging machinery (paper Section 3.6).
type vpMigOps struct {
	vp *VPState
}

func (o *vpMigOps) CaptureState() ([]byte, error) {
	dev := o.vp.Dev
	st := vpDeviceState{Name: dev.Name, Kicks: o.vp.Kicks,
		TxFrames: dev.TxFrames, RxFrames: dev.RxFrames, Reads: dev.Reads, Writes: dev.Writes}
	blob, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("dvh: encoding %s device state: %w", dev.Name, err)
	}
	return blob, nil
}

func (o *vpMigOps) SetDirtyLogging(enable bool) {
	o.vp.DirtyLogging = enable
	if enable {
		o.vp.HostDirty.Reset()
	}
}

// RestoreVPDeviceState applies a captured blob to a destination device,
// completing a migration hand-off between same-kind host hypervisors.
func RestoreVPDeviceState(dev *hyper.AssignedDevice, blob []byte) error {
	var st vpDeviceState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("dvh: corrupt device state blob: %w", err)
	}
	dev.TxFrames, dev.RxFrames, dev.Reads, dev.Writes = st.TxFrames, st.RxFrames, st.Reads, st.Writes
	return nil
}
