// Package migrate implements pre-copy live migration for the simulator,
// reproducing the paper's Section 4 migration experiments and the Section
// 3.6 design: iterative memory copying with dirty-page logging, a
// bandwidth-limited transfer model (QEMU's default 268 Mbps), device-state
// capture, and — the part DVH makes possible — migration of nested VMs that
// use virtual-passthrough, where pages dirtied by device DMA are invisible
// to the guest hypervisor unless the host exports them through the PCI
// migration capability.
//
// Pages really move: the destination VM receives the source's bytes, so a
// missed dirty page shows up as a content mismatch, exactly the data-loss
// failure the paper's migration capability exists to prevent.
package migrate

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/mem"
	"repro/internal/pci"
)

// DefaultBandwidth is QEMU's default migration transfer limit, used in the
// paper's experiments: 268 Mbps.
const DefaultBandwidth = 268_000_000

// Options tunes a migration.
type Options struct {
	// BandwidthBitsPerSec limits transfer (default DefaultBandwidth).
	BandwidthBitsPerSec uint64
	// DowntimeLimit is the stop-and-copy budget: pre-copy iterates until the
	// remaining dirty set fits (default 300 ms, QEMU's default).
	DowntimeLimit time.Duration
	// MaxRounds bounds pre-copy iteration (default 30, QEMU-like).
	MaxRounds int
}

func (o *Options) fill() {
	if o.BandwidthBitsPerSec == 0 {
		o.BandwidthBitsPerSec = DefaultBandwidth
	}
	if o.DowntimeLimit == 0 {
		o.DowntimeLimit = 300 * time.Millisecond
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 30
	}
}

// Churn models the workload running during migration: how many distinct
// pages its CPUs and its devices' DMA dirty per second.
type Churn struct {
	// WorkingSetPages is the memory footprint the workload keeps touching.
	WorkingSetPages int
	// CPUPagesPerSec is the guest-visible dirtying rate.
	CPUPagesPerSec float64
	// DMAPagesPerSec is the device-DMA dirtying rate (invisible to guest
	// hypervisors under virtual-passthrough).
	DMAPagesPerSec float64
}

// Plan describes one migration.
type Plan struct {
	// VM is the source. Migrating an L1 VM moves the whole stack inside it;
	// migrating a nested VM moves only that VM (the guest hypervisor's job).
	VM *hyper.VM
	// Dest, when non-nil, receives the memory image; it must be at least as
	// large as the source. With a nil Dest the transfer is accounted but not
	// materialized.
	Dest *hyper.VM
	// VP lists the virtual-passthrough devices assigned to the VM, whose DMA
	// dirt only the host can see.
	VP []*core.VPState
	// UseMigrationCap drives the paper's PCI migration capability: without
	// it, a VM using virtual-passthrough either cannot migrate safely or
	// silently loses DMA-dirtied pages (exposed by VerifyDest).
	UseMigrationCap bool
	// DVHSource/DVHDest, when set together with Dest, transfer the nested
	// VM's DVH virtual-hardware state (timer values, offsets, enable bits,
	// VCIMT) across — the Section 3.6 requirement that virtual hardware
	// state be saved and restored like any other device state.
	DVHSource *core.DVH
	DVHDest   *core.DVH
	// Churn is the concurrent workload model.
	Churn Churn
	// Options tune bandwidth and downtime.
	Options Options
}

// Report summarizes a migration.
type Report struct {
	// Rounds is the number of pre-copy iterations (excluding stop-and-copy).
	Rounds int
	// PagesSent and BytesSent total the transfer.
	PagesSent uint64
	BytesSent uint64
	// TotalTime spans start to resume-at-destination.
	TotalTime time.Duration
	// Downtime is the stop-and-copy phase.
	Downtime time.Duration
	// DeviceStateBytes is the captured device state shipped in the blackout.
	DeviceStateBytes int
	// MissedDMAPages counts pages dirtied by DMA that the guest-visible log
	// never saw and the migration never re-sent — nonzero means a corrupted
	// destination (the failure mode the migration capability prevents).
	MissedDMAPages int
}

// transferTime converts bytes to wire time at the configured bandwidth.
func (o *Options) transferTime(bytes uint64) time.Duration {
	return time.Duration(float64(bytes*8) / float64(o.BandwidthBitsPerSec) * float64(time.Second))
}

// pagesFitting returns how many pages fit in a time budget.
func (o *Options) pagesFitting(d time.Duration) uint64 {
	bytes := uint64(float64(o.BandwidthBitsPerSec) / 8 * d.Seconds())
	return bytes / mem.PageSize
}

// Run executes the migration.
func (p *Plan) Run() (Report, error) {
	p.Options.fill()
	var rep Report
	if p.VM == nil {
		return rep, fmt.Errorf("migrate: no source VM")
	}
	if p.Dest != nil && p.Dest.NumPages < p.VM.NumPages {
		return rep, fmt.Errorf("migrate: destination %s (%d pages) smaller than source %s (%d)",
			p.Dest.Name, p.Dest.NumPages, p.VM.Name, p.VM.NumPages)
	}
	for _, dev := range p.VM.Devices {
		if !dev.Virtual() {
			return rep, fmt.Errorf("migrate: %s has physical device %s assigned; migration does not work using passthrough", p.VM.Name, dev.Name)
		}
	}
	if len(p.VP) > 0 && !p.UseMigrationCap {
		// The paper's point: a guest hypervisor would normally refuse this
		// configuration outright. We proceed so the data-loss failure is
		// observable, but only callers that explicitly opted out get here.
		for _, vp := range p.VP {
			vp.HostDirty.Reset()
		}
	}

	// Touch the working set so the first pass has real content to ship.
	churnState := newChurner(p.VM, p.VP, p.Churn)
	if err := churnState.touchWorkingSet(); err != nil {
		return rep, err
	}

	// Begin logging: the guest-visible log plus (with the capability) the
	// host's DMA log behind the PCI migration capability.
	p.VM.StartDirtyLog()
	defer p.VM.StopDirtyLog()
	if p.UseMigrationCap {
		for _, vp := range p.VP {
			if err := vp.MigCap.GuestWriteCtrl(pci.MigCtrlDirtyLog); err != nil {
				return rep, err
			}
		}
	}

	// First pass: every written page.
	pending := p.VM.WrittenPages()
	for {
		bytes := uint64(len(pending)) * mem.PageSize
		dur := p.Options.transferTime(bytes)
		if err := p.copyPages(pending, &rep); err != nil {
			return rep, err
		}
		rep.TotalTime += dur
		rep.Rounds++

		// The workload keeps running during the round and dirties pages.
		if err := churnState.run(dur); err != nil {
			return rep, err
		}

		dirty := p.collectDirty()
		if uint64(len(dirty)) <= p.Options.pagesFitting(p.Options.DowntimeLimit) || rep.Rounds >= p.Options.MaxRounds {
			// Stop-and-copy: blackout, ship the remainder plus device state.
			var blob []byte
			for _, vp := range p.VP {
				if p.UseMigrationCap {
					if err := vp.MigCap.GuestWriteCtrl(pci.MigCtrlDirtyLog | pci.MigCtrlCapture); err != nil {
						return rep, err
					}
					blob = append(blob, vp.MigCap.CapturedState()...)
				}
			}
			if p.DVHSource != nil && p.Dest != nil && p.DVHDest != nil {
				dvhState, err := p.DVHSource.SaveVMState(p.VM)
				if err != nil {
					return rep, err
				}
				blob = append(blob, dvhState...)
				if err := p.DVHDest.RestoreVMState(p.Dest, dvhState); err != nil {
					return rep, err
				}
			}
			rep.DeviceStateBytes = len(blob)
			if err := p.copyPages(dirty, &rep); err != nil {
				return rep, err
			}
			rep.Downtime = p.Options.transferTime(uint64(len(dirty))*mem.PageSize + uint64(len(blob)))
			rep.TotalTime += rep.Downtime
			if p.Dest != nil && p.UseMigrationCap {
				for _, vp := range p.VP {
					destDev := p.Dest.FindDevice(vp.Dev.Class)
					if destDev != nil {
						if err := core.RestoreVPDeviceState(destDev, vp.MigCap.CapturedState()); err != nil {
							return rep, err
						}
					}
				}
			}
			rep.MissedDMAPages = churnState.missedDMA(p.UseMigrationCap)
			return rep, nil
		}
		pending = dirty
	}
}

// collectDirty merges the guest-visible log with the DMA log exported by the
// migration capability (when in use). Both logs drain in ascending order, so
// the merge keeps the result ascending and drops pages both logs saw.
func (p *Plan) collectDirty() []mem.PFN {
	out := p.VM.CollectDirty()
	if p.UseMigrationCap {
		for _, vp := range p.VP {
			out = mergePFNs(out, vp.CollectDMADirty())
		}
	}
	return out
}

// mergePFNs merges two ascending page lists into one ascending list without
// duplicates.
func mergePFNs(a, b []mem.PFN) []mem.PFN {
	if len(b) == 0 {
		return a
	}
	out := make([]mem.PFN, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out = append(out, a[0])
			a = a[1:]
		case b[0] < a[0]:
			out = append(out, b[0])
			b = b[1:]
		default:
			out = append(out, a[0])
			a, b = a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// copyPages materializes the transfer into the destination (when present)
// and accounts it. Pages move by sharing the source's frames copy-on-write,
// so the destination reads the bytes the source held at send time.
func (p *Plan) copyPages(pages []mem.PFN, rep *Report) error {
	rep.PagesSent += uint64(len(pages))
	rep.BytesSent += uint64(len(pages)) * mem.PageSize
	if p.Dest == nil {
		return nil
	}
	src, dst := p.VM.Memory(), p.Dest.Memory()
	for _, pg := range pages {
		if err := src.SharePageTo(dst, pg); err != nil {
			return err
		}
	}
	return nil
}

// VerifyDest compares every written source page against the destination,
// returning the mismatching pages. After a correct migration it is empty;
// after migrating a VP configuration without the migration capability it
// exposes the DMA-dirtied pages that were lost.
func (p *Plan) VerifyDest() ([]mem.PFN, error) {
	if p.Dest == nil {
		return nil, fmt.Errorf("migrate: no destination to verify")
	}
	var bad []mem.PFN
	sbuf := make([]byte, mem.PageSize)
	dbuf := make([]byte, mem.PageSize)
	src, dst := p.VM.Memory(), p.Dest.Memory()
	for _, pg := range p.VM.WrittenPages() {
		if err := src.Read(pg.Base(), sbuf); err != nil {
			return nil, err
		}
		if err := dst.Read(pg.Base(), dbuf); err != nil {
			return nil, err
		}
		if !bytes.Equal(sbuf, dbuf) {
			bad = append(bad, pg)
		}
	}
	return bad, nil
}
