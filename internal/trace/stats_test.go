package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vmx"
)

func TestRecordAndTotals(t *testing.T) {
	var s Stats
	s.RecordHardwareExit(vmx.ExitHLT)
	s.RecordHardwareExit(vmx.ExitHLT)
	s.RecordHardwareExit(vmx.ExitVMCALL)
	if got := s.TotalHardwareExits(); got != 3 {
		t.Fatalf("TotalHardwareExits = %d, want 3", got)
	}
	s.RecordHandledExit(vmx.ExitVMCALL, 1)
	s.RecordHandledExit(vmx.ExitHLT, 0)
	if got := s.TotalHandledAt(1); got != 1 {
		t.Fatalf("TotalHandledAt(1) = %d, want 1", got)
	}
	if got := s.GuestHypervisorExits(); got != 1 {
		t.Fatalf("GuestHypervisorExits = %d, want 1", got)
	}
}

func TestLevelClamping(t *testing.T) {
	var s Stats
	s.RecordHandledExit(vmx.ExitHLT, -3)
	s.RecordHandledExit(vmx.ExitHLT, MaxLevels+10)
	if s.HandledExits[vmx.ExitHLT.Index()][0] != 1 {
		t.Fatal("negative level not clamped to 0")
	}
	if s.HandledExits[vmx.ExitHLT.Index()][MaxLevels-1] != 1 {
		t.Fatal("overflow level not clamped")
	}
	s.ChargeLevel(-1, 10)
	s.ChargeLevel(MaxLevels, 20)
	if s.LevelCycles[0] != 10 || s.LevelCycles[MaxLevels-1] != 20 {
		t.Fatal("cycle charge clamping failed")
	}
}

func TestCycleAttribution(t *testing.T) {
	var s Stats
	s.ChargeLevel(0, 1000)
	s.ChargeLevel(1, 500)
	s.ChargeGuest(250)
	if s.TotalCycles() != 1750 {
		t.Fatalf("TotalCycles = %d, want 1750", s.TotalCycles())
	}
}

func TestCounters(t *testing.T) {
	var s Stats
	if s.Count(CounterVirtioKicks) != 0 {
		t.Fatal("untouched counter should read zero")
	}
	s.Inc(CounterVirtioKicks, 2)
	s.Inc(CounterIdleBlocks, 7)
	s.Inc(CounterVirtioKicks, 1)
	if s.Count(CounterVirtioKicks) != 3 || s.Count(CounterIdleBlocks) != 7 {
		t.Fatal("counter arithmetic wrong")
	}
	if s.Count(CounterIdleWakes) != 0 {
		t.Fatal("a bump leaked into another counter")
	}
}

// TestCounterNamesSorted guards the name table String reports from: every
// counter has a unique, non-empty name, and the enum is declared in strictly
// ascending name order, so walking the array prints counters sorted.
func TestCounterNamesSorted(t *testing.T) {
	for c := Counter(0); c < NumCounters; c++ {
		name := c.String()
		if name == "" {
			t.Errorf("counter %d has no name", c)
			continue
		}
		if c > 0 && name <= (c-1).String() {
			t.Errorf("counter %d %q does not sort after %q", c, name, (c - 1).String())
		}
	}
}

func TestMerge(t *testing.T) {
	var a, b Stats
	a.RecordHardwareExit(vmx.ExitHLT)
	a.Inc(CounterIRQDelivered, 1)
	a.ChargeGuest(10)
	b.RecordHardwareExit(vmx.ExitHLT)
	b.RecordHandledExit(vmx.ExitVMCALL, 2)
	b.Inc(CounterIRQDelivered, 4)
	b.Inc(CounterSchedSwitches, 2)
	b.ChargeLevel(2, 30)
	a.Merge(&b)
	if a.TotalHardwareExits() != 2 {
		t.Fatal("hardware exits did not merge")
	}
	if a.TotalHandledAt(2) != 1 {
		t.Fatal("handled exits did not merge")
	}
	if a.Count(CounterIRQDelivered) != 5 || a.Count(CounterSchedSwitches) != 2 {
		t.Fatal("counters did not merge")
	}
	if a.TotalCycles() != 40 {
		t.Fatalf("TotalCycles after merge = %d, want 40", a.TotalCycles())
	}
}

func TestReset(t *testing.T) {
	var s Stats
	s.RecordHardwareExit(vmx.ExitHLT)
	s.Inc(CounterIRQDelivered, 1)
	s.ChargeGuest(5)
	s.Reset()
	if s.TotalHardwareExits() != 0 || s.Count(CounterIRQDelivered) != 0 || s.TotalCycles() != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestStringReport(t *testing.T) {
	var s Stats
	s.RecordHardwareExit(vmx.ExitVMCALL)
	s.RecordHandledExit(vmx.ExitVMCALL, 1)
	s.ChargeLevel(0, 1500)
	s.Inc(CounterVirtioKicks, 3)
	s.Inc(CounterDVHVIPISends, 1)
	out := s.String()
	for _, want := range []string{"VMCALL", "L1=1", "virtio.kicks=3", "hardware exits: 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if i, j := strings.Index(out, "dvh.vipi.sends=1"), strings.Index(out, "virtio.kicks=3"); i < 0 || i > j {
		t.Errorf("counters not reported in name order:\n%s", out)
	}
	if strings.Contains(out, "idle.wakes") {
		t.Errorf("untouched counter reported:\n%s", out)
	}
}

func TestMergePreservesTotalsProperty(t *testing.T) {
	f := func(n1, n2 uint8) bool {
		var a, b Stats
		for i := uint8(0); i < n1; i++ {
			a.RecordHardwareExit(vmx.ExitHLT)
		}
		for i := uint8(0); i < n2; i++ {
			b.RecordHardwareExit(vmx.ExitEPTViolation)
		}
		a.Merge(&b)
		return a.TotalHardwareExits() == uint64(n1)+uint64(n2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
