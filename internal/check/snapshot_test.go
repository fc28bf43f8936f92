package check_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/migrate"
	"repro/internal/trace"
	"repro/internal/workload"
)

// snapProfile is a deliberately broad access mix that stays inside the
// snapshot's captured state: memory pages, DVH virtual-hardware state, and
// VMCS-visible configuration. (Idle/IPI scheduling state is transient and
// intentionally outside the snapshot contract.)
var snapProfile = workload.Profile{
	Name: "snapshot-mix", Unit: "trans/s", NativeScore: 1000, HigherIsBetter: true,
	Cores: 2, WorkCycles: 5000,
	TxKicks: 1, RxBatches: 0.5, Timers: 0.25, EOIs: 1, BlkOps: 0.5,
}

// TestSnapshotRestoreReplaysIdenticalTimeline is the suspend/resume
// determinism property of Section 3.6: running a workload, snapshotting the
// nested VM, restoring the snapshot into a freshly built identical stack,
// and continuing the workload must replay the exact same exit timeline and
// costs as the original VM continuing in place.
func TestSnapshotRestoreReplaysIdenticalTimeline(t *testing.T) {
	spec := experiment.Spec{Depth: 2, IO: experiment.IODVH}
	src, srcCheck := buildChecked(t, spec)
	runner := func(st *experiment.Stack) workload.Runner {
		return workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: snapProfile}
	}

	// Segment 1 runs only on the source.
	r := runner(src)
	if _, err := r.Run(40); err != nil {
		t.Fatal(err)
	}
	blob, err := migrate.Snapshot(src.Target, src.DVH)
	if err != nil {
		t.Fatal(err)
	}

	dst, dstCheck := buildChecked(t, spec)
	if err := migrate.RestoreSnapshot(dst.Target, dst.DVH, blob); err != nil {
		t.Fatal(err)
	}

	// Segment 2 runs on both, each under a fresh exit recorder.
	src.World.Tracer = trace.NewRecorder(4096)
	dst.World.Tracer = trace.NewRecorder(4096)
	srcHW0 := src.Machine.Stats.TotalHardwareExits()
	dstHW0 := dst.Machine.Stats.TotalHardwareExits()

	sr := runner(src)
	srcRes, err := sr.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	dr := runner(dst)
	dstRes, err := dr.Run(60)
	if err != nil {
		t.Fatal(err)
	}

	if srcTL, dstTL := src.World.Tracer.Timeline(), dst.World.Tracer.Timeline(); srcTL != dstTL {
		t.Errorf("restored VM replays a different exit timeline:\n--- original ---\n%s\n--- restored ---\n%s", srcTL, dstTL)
	}
	srcHW := src.Machine.Stats.TotalHardwareExits() - srcHW0
	dstHW := dst.Machine.Stats.TotalHardwareExits() - dstHW0
	if srcHW != dstHW {
		t.Errorf("segment 2 took %d hardware exits on the original, %d on the restored VM", srcHW, dstHW)
	}
	if !reflect.DeepEqual(srcRes, dstRes) {
		t.Errorf("segment 2 results diverge:\noriginal: %+v\nrestored: %+v", srcRes, dstRes)
	}
	finish(t, spec, srcCheck)
	finish(t, spec, dstCheck)
}

// TestMigrationKeepsDirtyInvariants runs a DVH migration, whose pages move
// by copy-on-write frame sharing, with the checker attached to both stacks:
// the destination's written sets, dirty logs and EPT A/D bits must agree
// exactly as after a byte copy.
func TestMigrationKeepsDirtyInvariants(t *testing.T) {
	spec := experiment.Spec{Depth: 2, IO: experiment.IODVH}
	src, srcCheck := buildChecked(t, spec)
	dst, dstCheck := buildChecked(t, spec)
	vp, ok := src.DVH.VPStateOf(src.Net)
	if !ok {
		t.Fatal("DVH stack without VP state")
	}
	p := &migrate.Plan{
		VM: src.Target, Dest: dst.Target,
		VP: []*core.VPState{vp}, UseMigrationCap: true,
		Churn: migrate.Churn{WorkingSetPages: 512, CPUPagesPerSec: 2000, DMAPagesPerSec: 500},
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if bad, err := p.VerifyDest(); err != nil || len(bad) != 0 {
		t.Fatalf("destination diverges on %v (err %v)", bad, err)
	}
	finish(t, spec, srcCheck)
	finish(t, spec, dstCheck)
}
