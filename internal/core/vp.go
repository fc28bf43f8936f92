package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/apic"
	"repro/internal/hyper"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/pci"
	"repro/internal/virtio"
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
	// Domains are the per-level vIOMMU domains the guest hypervisors
	// programmed for the assignment, outermost (closest to the nested VM)
	// first.
	Domains []*iommu.Domain
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

// AttachVirtualPassthroughNet performs the paper's Section 3.1 configuration
// for a network device: the host creates a PCI-conformant virtio-net device,
// every intermediate hypervisor exposes a virtual IOMMU and passes the
// device up through its standard passthrough framework, and the nested VM
// receives it as an ordinary PCI NIC. No guest hypervisor ever emulates it.
func (d *DVH) AttachVirtualPassthroughNet(vm *hyper.VM, name string) (*hyper.AssignedDevice, error) {
	return d.attachVP(vm, name, hyper.DevNet)
}

// AttachVirtualPassthroughBlk is the block-device variant.
func (d *DVH) AttachVirtualPassthroughBlk(vm *hyper.VM, name string) (*hyper.AssignedDevice, error) {
	return d.attachVP(vm, name, hyper.DevBlk)
}

func (d *DVH) attachVP(vm *hyper.VM, name string, class hyper.DeviceClass) (*hyper.AssignedDevice, error) {
	if !d.Features.Has(FeatureVirtualPassthrough) {
		return nil, fmt.Errorf("dvh: virtual-passthrough feature not enabled")
	}
	if vm.Level < 2 {
		return nil, fmt.Errorf("dvh: virtual-passthrough assigns to nested VMs; %s is level %d (use a plain virtual device)", vm.Name, vm.Level)
	}
	posted := d.Features.Has(FeatureVIOMMUPostedInterrupts)

	// Every VM from L1 up to (but excluding) the target needs a virtual
	// IOMMU so its hypervisor can pass the device onward.
	chain := stackVMs(vm)
	for _, cur := range chain[:len(chain)-1] {
		if cur.VIOMMU == nil {
			cur.ProvideVIOMMU(posted)
		} else if posted && !cur.VIOMMU.PostedCapable() {
			cur.VIOMMU.SetPostedCapable(true)
		}
	}

	doorbell := vm.AllocMMIO(mem.PageSize)
	dev := &hyper.AssignedDevice{
		Name:           name,
		Class:          class,
		VM:             vm,
		ProviderLevel:  0,
		VP:             true,
		Doorbell:       doorbell,
		DoorbellSize:   mem.PageSize,
		IRQ:            apic.VectorVirtioIRQ,
		PostedDelivery: posted,
	}
	switch class {
	case hyper.DevNet:
		nd, err := virtio.NewNetDevice(name, doorbell)
		if err != nil {
			return nil, err
		}
		dev.Net = nd
	case hyper.DevBlk:
		bd, err := virtio.NewBlkDevice(name, doorbell, d.World.Host.Machine.SSD.Backing)
		if err != nil {
			return nil, err
		}
		dev.Blk = bd
	}
	fn := deviceFunction(dev)
	// The guest hypervisors' passthrough dance: the device is unbound from
	// any emulation driver and bound to the vfio framework at every level it
	// transits, then the nested VM binds its own driver.
	if err := fn.Bind("vfio-pci"); err != nil {
		return nil, err
	}
	vm.Bus.AutoAdd(fn)

	vp := &VPState{
		Dev:       dev,
		Shadow:    mem.NewPageTable(),
		HostDirty: mem.NewBitmap(uint64(vm.NumPages)),
		holder:    chain[0],
		vm:        vm,
	}
	// Each intermediate hypervisor creates a vIOMMU domain for the device.
	for _, cur := range chain[:len(chain)-1] {
		dom := cur.VIOMMU.CreateDomain(vm.Name + "/" + name)
		if err := cur.VIOMMU.Attach(fn, dom); err != nil {
			return nil, err
		}
		vp.Domains = append(vp.Domains, dom)
	}
	// Interrupt routing: the nested VM's driver programs the device's MSI-X
	// vectors, and the guest hypervisor remaps each through its vIOMMU —
	// with posting the entries target the vCPU's PI descriptor.
	var msix *pci.MSIXTable
	if dev.Net != nil {
		msix = dev.Net.MSIX
	} else {
		msix = dev.Blk.MSIX
	}
	inner := chain[len(chain)-2].VIOMMU
	for qi := 0; qi < msix.Size(); qi++ {
		if err := msix.SetEntry(qi, uint64(qi), uint32(dev.IRQ)+uint32(qi)); err != nil {
			return nil, err
		}
		if posted {
			if err := inner.ProgramPostedIRTE(qi, apic.Vector(uint32(dev.IRQ)+uint32(qi)), vm.VCPUs[0].PID); err != nil {
				return nil, err
			}
		} else if err := inner.ProgramIRTE(qi, apic.Vector(uint32(dev.IRQ)+uint32(qi)), vm.VCPUs[0].PhysCPU); err != nil {
			return nil, err
		}
	}
	msix.SetEnabled(true)

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

// deviceFunction extracts the PCI function of a virtual device.
func deviceFunction(dev *hyper.AssignedDevice) *pci.Function {
	if dev.Net != nil {
		return dev.Net.Fn
	}
	return dev.Blk.Fn
}

// VPStateOf returns the VP state for a device, if it is a VP assignment.
func (d *DVH) VPStateOf(dev *hyper.AssignedDevice) (*VPState, bool) {
	vp, ok := d.vp[dev]
	return vp, ok
}

// ensureShadow resolves a nested-VM frame to an L1 frame, lazily programming
// the per-level vIOMMU domains (what the guest hypervisors do as the nested
// VM's driver maps DMA buffers) and folding the chain into the combined
// shadow table.
func (vp *VPState) ensureShadow(p mem.PFN) (mem.PFN, error) {
	if w := vp.Shadow.Lookup(p, 0); w.Present {
		return w.PFN, nil
	}
	cur := vp.vm
	frame := p
	di := len(vp.Domains) - 1
	for cur.Level > 1 {
		target, err := cur.EnsureMapped(frame)
		if err != nil {
			return 0, err
		}
		if di >= 0 {
			vp.Domains[di].Table.Map(frame, target, mem.PermRW)
			di--
		}
		frame = target
		cur = cur.Owner.HostVM
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

func (v *vpDMA) forEachPage(a mem.Addr, n int, fn func(l1 mem.Addr, off, step int, page mem.PFN) error) error {
	off := 0
	for n > 0 {
		step := mem.PageSize - int(a&(mem.PageSize-1))
		if step > n {
			step = n
		}
		p := mem.PageOf(a)
		l1f, err := v.vp.ensureShadow(p)
		if err != nil {
			return err
		}
		l1 := l1f.Base() + (a & (mem.PageSize - 1))
		if err := fn(l1, off, step, p); err != nil {
			return err
		}
		a += mem.Addr(step)
		off += step
		n -= step
	}
	return nil
}

func (v *vpDMA) Read(a mem.Addr, buf []byte) error {
	return v.forEachPage(a, len(buf), func(l1 mem.Addr, off, step int, _ mem.PFN) error {
		return v.vp.holder.Memory().Read(l1, buf[off:off+step])
	})
}

func (v *vpDMA) Write(a mem.Addr, buf []byte) error {
	return v.forEachPage(a, len(buf), func(l1 mem.Addr, off, step int, page mem.PFN) error {
		v.vp.HostDirty.Set(uint64(page))
		return v.vp.holder.Memory().Write(l1, buf[off:off+step])
	})
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
	st := vpDeviceState{Name: o.vp.Dev.Name, Kicks: o.vp.Kicks}
	if o.vp.Dev.Net != nil {
		st.TxFrames = o.vp.Dev.Net.TxFrames
		st.RxFrames = o.vp.Dev.Net.RxFrames
	}
	if o.vp.Dev.Blk != nil {
		st.Reads = o.vp.Dev.Blk.Reads
		st.Writes = o.vp.Dev.Blk.Writes
	}
	blob, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("dvh: encoding %s device state: %w", o.vp.Dev.Name, err)
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
	if dev.Net != nil {
		dev.Net.TxFrames = st.TxFrames
		dev.Net.RxFrames = st.RxFrames
	}
	if dev.Blk != nil {
		dev.Blk.Reads = st.Reads
		dev.Blk.Writes = st.Writes
	}
	return nil
}
