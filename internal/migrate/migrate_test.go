package migrate

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/vmx"
)

// rig holds a source stack and a destination twin on a second machine.
type rig struct {
	dvh  *core.DVH
	w    *hyper.World
	l1   *hyper.VM
	l2   *hyper.VM
	dst  *hyper.VM // destination twin of l2 on machine B
	vp   []*core.VPState
	vpOK bool
}

func buildRig(t *testing.T, features core.Features) *rig {
	t.Helper()
	mkStack := func(name string) (*hyper.World, *core.DVH, *hyper.VM, *hyper.VM) {
		m := machine.MustNew(machine.Config{Name: name, CPUs: 10, MemoryBytes: 64 << 30, Caps: vmx.HardwareCaps})
		host := hyper.NewHost(m, hyper.KVM{})
		w := hyper.NewWorld(host)
		var d *core.DVH
		if features != 0 {
			var err error
			if d, err = core.Enable(w, features); err != nil {
				t.Fatal(err)
			}
		}
		l1, err := host.CreateVM(hyper.VMConfig{Name: "L1", VCPUs: 6, MemBytes: 8 << 30})
		if err != nil {
			t.Fatal(err)
		}
		gh := l1.InstallHypervisor(hyper.KVM{}, "kvm-L1")
		l2, err := gh.CreateVM(hyper.VMConfig{Name: "L2", VCPUs: 4, MemBytes: 2 << 30})
		if err != nil {
			t.Fatal(err)
		}
		return w, d, l1, l2
	}
	w, d, l1, l2 := mkStack("src")
	_, dd, _, dst := mkStack("dst")
	r := &rig{dvh: d, w: w, l1: l1, l2: l2, dst: dst}
	if features.Has(core.FeatureVirtualPassthrough) {
		dev, err := d.AttachVirtualPassthrough(l2, hyper.DevNet, "vp-net")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dd.AttachVirtualPassthrough(dst, hyper.DevNet, "vp-net"); err != nil {
			t.Fatal(err)
		}
		vp, _ := d.VPStateOf(dev)
		r.vp = []*core.VPState{vp}
		r.vpOK = true
	}
	return r
}

func TestMigrationParavirtCorrect(t *testing.T) {
	r := buildRig(t, 0)
	if _, err := hyper.AttachParavirt(r.l1, hyper.DevNet, "net-l1"); err != nil {
		t.Fatal(err)
	}
	if _, err := hyper.AttachParavirt(r.l2, hyper.DevNet, "net-l2"); err != nil {
		t.Fatal(err)
	}
	p := &Plan{
		VM: r.l2, Dest: r.dst,
		// Dirty faster than one downtime budget's worth per round so
		// pre-copy must iterate before converging.
		Churn: Churn{WorkingSetPages: 4096, CPUPagesPerSec: 6000},
	}
	rep, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds < 2 {
		t.Errorf("pre-copy converged in %d rounds; expected iteration under churn", rep.Rounds)
	}
	if rep.Downtime > p.Options.DowntimeLimit+50*time.Millisecond {
		t.Errorf("downtime %v exceeds limit %v", rep.Downtime, p.Options.DowntimeLimit)
	}
	if rep.PagesSent < 4096 {
		t.Errorf("sent %d pages, less than the working set", rep.PagesSent)
	}
	bad, err := p.VerifyDest()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("destination diverges on %d pages", len(bad))
	}
}

func TestMigrationVPWithCapabilityCorrect(t *testing.T) {
	r := buildRig(t, core.FeaturesVP)
	p := &Plan{
		VM: r.l2, Dest: r.dst, VP: r.vp, UseMigrationCap: true,
		Churn: Churn{WorkingSetPages: 4096, CPUPagesPerSec: 1500, DMAPagesPerSec: 800},
	}
	rep, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MissedDMAPages != 0 {
		t.Fatalf("capability in use but %d DMA pages reported missed", rep.MissedDMAPages)
	}
	if rep.DeviceStateBytes == 0 {
		t.Fatal("no device state shipped in the blackout")
	}
	bad, err := p.VerifyDest()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("destination diverges on %d pages despite the migration capability", len(bad))
	}
}

func TestMigrationVPWithoutCapabilityLosesDMAPages(t *testing.T) {
	// The Section 3.6 failure mode: the guest hypervisor cannot see device
	// DMA, so without the capability the destination is corrupted.
	r := buildRig(t, core.FeaturesVP)
	p := &Plan{
		VM: r.l2, Dest: r.dst, VP: r.vp, UseMigrationCap: false,
		Churn: Churn{WorkingSetPages: 4096, CPUPagesPerSec: 1500, DMAPagesPerSec: 800},
	}
	rep, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MissedDMAPages == 0 {
		t.Fatal("expected missed DMA pages without the capability")
	}
	bad, err := p.VerifyDest()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) == 0 {
		t.Fatal("destination should diverge: DMA dirt was never re-sent")
	}
}

// TestResendCleanPageAllocFree holds that re-sending an already-sent, clean
// page through the guest-memory view allocates nothing: the EPT chain is
// already mapped, the dirty log's chunk exists and the frame is shared
// again, not copied. A fallback to copying would allocate a frame.
func TestResendCleanPageAllocFree(t *testing.T) {
	r := buildRig(t, 0)
	src, dst := r.l2.Memory(), r.dst.Memory()
	const pg = mem.PFN(9)
	if err := src.WriteU64(pg.Base(), 42); err != nil {
		t.Fatal(err)
	}
	r.dst.StartDirtyLog()
	if err := src.SharePageTo(dst, pg); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := src.SharePageTo(dst, pg); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("re-sending a clean page made %v allocations, want 0", n)
	}
	if got, err := dst.ReadU64(pg.Base()); err != nil || got != 42 {
		t.Fatalf("destination reads %d (err %v), want 42", got, err)
	}
}

func TestMigrationPhysicalPassthroughRefused(t *testing.T) {
	m := machine.MustNew(machine.Config{Name: "pt", CPUs: 10, MemoryBytes: 64 << 30, Caps: vmx.HardwareCaps, NICVFs: 2})
	host := hyper.NewHost(m, hyper.KVM{})
	hyper.NewWorld(host)
	l1, err := host.CreateVM(hyper.VMConfig{Name: "L1", VCPUs: 6, MemBytes: 8 << 30})
	if err != nil {
		t.Fatal(err)
	}
	l1.ProvideVIOMMU(true)
	gh := l1.InstallHypervisor(hyper.KVM{}, "kvm-L1")
	l2, err := gh.CreateVM(hyper.VMConfig{Name: "L2", VCPUs: 4, MemBytes: 2 << 30})
	if err != nil {
		t.Fatal(err)
	}
	vfs, err := m.CreateVFs(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hyper.AttachPassthroughNIC(l2, vfs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Plan{VM: l2, Churn: Churn{WorkingSetPages: 128}}).Run(); err == nil {
		t.Fatal("migration with a physical passthrough device must be refused")
	}
}

func TestMigrationWholeStackCostsMore(t *testing.T) {
	// Paper Section 4: migrating a nested VM along with its guest hypervisor
	// is roughly twice as expensive due to the extra memory state.
	r := buildRig(t, 0)
	nestedChurn := Churn{WorkingSetPages: 4096, CPUPagesPerSec: 500}
	nested := &Plan{VM: r.l2, Churn: nestedChurn}
	nrep, err := nested.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The L1's written set includes everything the nested VM wrote plus the
	// L1 hypervisor's own working set.
	l1churn := Churn{WorkingSetPages: 4096, CPUPagesPerSec: 500}
	whole := &Plan{VM: r.l1, Churn: l1churn}
	wrep, err := whole.Run()
	if err != nil {
		t.Fatal(err)
	}
	if wrep.BytesSent <= nrep.BytesSent {
		t.Errorf("whole-stack migration sent %d bytes, nested-only %d; stack must cost more",
			wrep.BytesSent, nrep.BytesSent)
	}
	if wrep.TotalTime <= nrep.TotalTime {
		t.Errorf("whole-stack time %v should exceed nested-only %v", wrep.TotalTime, nrep.TotalTime)
	}
}

func TestMigrationValidation(t *testing.T) {
	r := buildRig(t, 0)
	if _, err := (&Plan{}).Run(); err == nil {
		t.Fatal("nil source accepted")
	}
	small := r.l2
	big := r.l1
	if _, err := (&Plan{VM: big, Dest: small, Churn: Churn{WorkingSetPages: 16}}).Run(); err == nil {
		t.Fatal("undersized destination accepted")
	}
}

func TestTransferMath(t *testing.T) {
	o := Options{}
	o.fill()
	// 268 Mbps: 33.5 MB/s; one 4 KiB page ≈ 122 µs.
	d := o.transferTime(4096)
	if d < 100*time.Microsecond || d > 150*time.Microsecond {
		t.Fatalf("one page transfer = %v", d)
	}
	if got := o.pagesFitting(o.DowntimeLimit); got == 0 {
		t.Fatal("downtime budget fits zero pages")
	}
}

// TestMergePFNs checks the union of the guest-visible and DMA dirty logs:
// ascending, each page once, whichever side is empty.
func TestMergePFNs(t *testing.T) {
	for _, c := range []struct{ a, b, want []mem.PFN }{
		{nil, nil, nil},
		{[]mem.PFN{1, 5}, nil, []mem.PFN{1, 5}},
		{nil, []mem.PFN{2, 3}, []mem.PFN{2, 3}},
		{[]mem.PFN{1, 4, 9}, []mem.PFN{0, 4, 7, 9, 12}, []mem.PFN{0, 1, 4, 7, 9, 12}},
		{[]mem.PFN{3, 8}, []mem.PFN{3, 8}, []mem.PFN{3, 8}},
	} {
		if got := mergePFNs(c.a, c.b); !slices.Equal(got, c.want) {
			t.Errorf("mergePFNs(%v, %v) = %v; want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestHigherBandwidthShortensMigration(t *testing.T) {
	r := buildRig(t, 0)
	slow := &Plan{VM: r.l2, Churn: Churn{WorkingSetPages: 2048, CPUPagesPerSec: 300}}
	srep, err := slow.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2 := buildRig(t, 0)
	fast := &Plan{
		VM: r2.l2, Churn: Churn{WorkingSetPages: 2048, CPUPagesPerSec: 300},
		Options: Options{BandwidthBitsPerSec: 10 * DefaultBandwidth},
	}
	frep, err := fast.Run()
	if err != nil {
		t.Fatal(err)
	}
	if frep.TotalTime >= srep.TotalTime {
		t.Errorf("10x bandwidth did not shorten migration: %v vs %v", frep.TotalTime, srep.TotalTime)
	}
}

func TestMigrationMaxRoundsUnderHeavyChurn(t *testing.T) {
	// A workload dirtying faster than the link can drain never converges;
	// migration must cap at MaxRounds and stop-and-copy whatever remains.
	r := buildRig(t, 0)
	p := &Plan{
		VM:      r.l2,
		Churn:   Churn{WorkingSetPages: 8192, CPUPagesPerSec: 1_000_000},
		Options: Options{MaxRounds: 5},
	}
	rep, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 5 {
		t.Fatalf("rounds = %d, want the MaxRounds cap", rep.Rounds)
	}
	// The forced blackout exceeds the configured budget — the tradeoff QEMU
	// exposes the same way.
	if rep.Downtime <= p.Options.DowntimeLimit {
		t.Fatalf("forced stop-and-copy downtime %v should exceed the %v budget", rep.Downtime, p.Options.DowntimeLimit)
	}
}
