package pci

import "fmt"

// Function is one PCI function: a configuration space plus the driver
// binding the simulator's passthrough machinery checks. The I/O cost model
// charges device work per transaction, so no ring or register behavior
// hangs off it.
type Function struct {
	Name   string
	Config *ConfigSpace
	// VFParent points at the physical function for SR-IOV virtual functions.
	VFParent *Function

	boundDriver string
}

// NewFunction builds a PCI function with the given identity.
func NewFunction(name string, vendor, device uint16, class uint32) *Function {
	return &Function{
		Name:   name,
		Config: NewConfigSpace(vendor, device, class),
	}
}

// Bind attaches a named driver (e.g. "virtio-net", "vfio-pci"). Passthrough
// assignment requires unbinding the owner's driver first, exactly the dance
// the paper describes for guest hypervisors.
func (f *Function) Bind(driver string) error {
	if f.boundDriver != "" && f.boundDriver != driver {
		return fmt.Errorf("pci: %s already bound to %s", f.Name, f.boundDriver)
	}
	f.boundDriver = driver
	return nil
}

// Unbind detaches whatever driver holds the function.
func (f *Function) Unbind() { f.boundDriver = "" }

// Driver returns the bound driver name ("" when unbound).
func (f *Function) Driver() string { return f.boundDriver }

// SR-IOV capability register offsets (relative to the capability header).
const (
	sriovOffTotalVFs = 2
	sriovOffNumVFs   = 4
)

// EnableSRIOV adds the SR-IOV capability to a physical function, advertising
// totalVFs virtual functions.
func EnableSRIOV(pf *Function, totalVFs uint16) error {
	off, err := pf.Config.AddCapability(CapSRIOV, 8)
	if err != nil {
		return err
	}
	pf.Config.WriteU16(off+sriovOffTotalVFs, totalVFs)
	return nil
}

// CreateVFs instantiates n SR-IOV virtual functions of pf, returning them.
// It fails if the PF lacks the capability or n exceeds TotalVFs.
func CreateVFs(pf *Function, n int) ([]*Function, error) {
	off, ok := pf.Config.FindCapability(CapSRIOV)
	if !ok {
		return nil, fmt.Errorf("pci: %s has no SR-IOV capability", pf.Name)
	}
	total := int(pf.Config.ReadU16(off + sriovOffTotalVFs))
	cur := int(pf.Config.ReadU16(off + sriovOffNumVFs))
	if cur+n > total {
		return nil, fmt.Errorf("pci: %s supports %d VFs, %d requested with %d existing", pf.Name, total, n, cur)
	}
	var vfs []*Function
	for i := 0; i < n; i++ {
		vf := NewFunction(
			fmt.Sprintf("%s-vf%d", pf.Name, cur+i),
			pf.Config.VendorID(), pf.Config.DeviceID()+1, uint32(pf.Config.ReadU32(offClassCode))&0xffffff,
		)
		vf.VFParent = pf
		vfs = append(vfs, vf)
	}
	pf.Config.WriteU16(off+sriovOffNumVFs, uint16(cur+n))
	return vfs, nil
}
