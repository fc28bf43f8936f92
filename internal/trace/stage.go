package trace

// Stage identifies the phase an exit transaction is in. A transaction's
// stages are ordered — fast-path, intercept, route, emulate or forward,
// deliver, settle — but not every transaction visits every stage: a TLB hit
// ends at StageFastPath, a DVH-claimed exit at StageIntercept, and interrupt
// deliveries enter directly at StageDeliver. The enum lives here, below the
// hyper pipeline that drives it, so StageStats can size its tables by it.
type Stage uint8

const (
	// StageFastPath covers operations that complete without a hardware exit:
	// TLB hits, posted doorbell writes to passthrough devices, APICv-absorbed
	// EOIs.
	StageFastPath Stage = iota
	// StageIntercept consults the registered interceptor chain: the host may
	// claim a nested VM's exit and handle it directly (paper Figure 1b).
	StageIntercept
	// StageRoute resolves which hypervisor level owns the exit.
	StageRoute
	// StageEmulate is host-owned handling: the L0 hypervisor emulates the
	// operation itself.
	StageEmulate
	// StageForward reflects the exit up to the owning guest hypervisor,
	// recursively emulating every privileged instruction its handler runs
	// (paper Figure 1a — the exit-multiplication engine).
	StageForward
	// StageDeliver is the interrupt-delivery side: timer and device IRQ
	// injection, device receive processing, idle wakes.
	StageDeliver
	// StageSettle closes the transaction: the single point where the final
	// cost is handed back to the caller and the invariant checker observes
	// the completed boundary.
	StageSettle
)

// NumStages is the number of pipeline stages (for per-stage ledgers).
const NumStages = int(StageSettle) + 1

var stageNames = [NumStages]string{
	"fast-path", "intercept", "route", "emulate", "forward", "deliver", "settle",
}

func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "Stage(?)"
}

// Boundary identifies the public World entry point that opened a
// transaction. Every entry point opens an invariant-checker frame on entry
// and closes it on return; nested entries (a forwarded exit re-entering
// Execute, a wake inside an IPI) stack.
type Boundary uint8

const (
	// BoundaryExecute is a guest operation entering World.Execute.
	BoundaryExecute Boundary = iota
	// BoundaryTimerIRQ is a fired timer interrupt being delivered.
	BoundaryTimerIRQ
	// BoundaryDeviceIRQ is a device completion interrupt being delivered.
	BoundaryDeviceIRQ
	// BoundaryDeviceRX is inbound device data being processed.
	BoundaryDeviceRX
	// BoundaryWake is an idle vCPU being woken.
	BoundaryWake
)

// NumBoundaries is the number of boundaries (for per-boundary ledgers).
const NumBoundaries = int(BoundaryWake) + 1

var boundaryNames = [NumBoundaries]string{
	"Execute", "DeliverTimerIRQ", "DeliverDeviceIRQ", "DeviceRX", "WakeIfIdle",
}

func (b Boundary) String() string {
	if int(b) < NumBoundaries {
		return boundaryNames[b]
	}
	return "Boundary(?)"
}
