package trace

import (
	"fmt"
	"strings"

	"repro/internal/vmx"
)

// Event is one hardware VM exit as it happened: which level's execution
// trapped, why, and which hypervisor level's logic the exit belongs to.
// A forwarded nested exit appears as a *sequence* of events — the original
// exit followed by the storm of the guest hypervisor's own trapped
// instructions — making exit multiplication directly readable.
type Event struct {
	// Seq is the global order of the exit.
	Seq uint64
	// Reason is the hardware exit reason.
	Reason vmx.ExitReason
	// FromLevel is the execution level that trapped (n for the nested VM's
	// own accesses, k for a level-k guest hypervisor's instruction).
	FromLevel int
	// HandlerLevel is the hypervisor level whose logic consumes the exit.
	HandlerLevel int
}

// Recorder is a bounded ring of exit events. A nil *Recorder is a valid
// no-op sink, so the hot path can record unconditionally.
type Recorder struct {
	ring  []Event
	next  int
	count uint64
	seq   uint64
}

// NewRecorder returns a recorder keeping the most recent capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Recorder{ring: make([]Event, capacity)}
}

// clampLevel clamps a recorded level into the accounting tables' range,
// exactly like Stats.RecordHandledExit does: levels are data here, and a
// negative one (e.g. an exit recorded while routing is still unresolved,
// Owner == -1) must degrade to the edge row instead of poisoning the ring —
// Timeline indents by handler level and strings.Repeat panics on a negative
// count.
func clampLevel(l int) int {
	if l < 0 {
		return 0
	}
	if l >= MaxLevels {
		return MaxLevels - 1
	}
	return l
}

// Record appends an event; on a nil recorder it is a no-op. Levels are
// clamped into [0, MaxLevels) with Stats' clamping rules.
func (r *Recorder) Record(reason vmx.ExitReason, from, handler int) {
	if r == nil {
		return
	}
	r.seq++
	r.ring[r.next] = Event{Seq: r.seq, Reason: reason, FromLevel: clampLevel(from), HandlerLevel: clampLevel(handler)}
	r.next = (r.next + 1) % len(r.ring)
	r.count++
}

// RecordRun appends n identical events — the bulk form of Record the
// plan replay path uses for run-length-encoded event sequences. The
// recorder ends in exactly the state n successive Record calls would leave
// it in (same ring contents, sequence numbers, counts), so a replayed
// timeline is byte-identical to a recomputed one. Runs longer than the ring
// skip straight to the retained suffix instead of overwriting the ring
// len(run)/capacity times.
func (r *Recorder) RecordRun(reason vmx.ExitReason, from, handler, n int) {
	if r == nil || n <= 0 {
		return
	}
	if cap := len(r.ring); n > cap {
		// The first n-cap events would be overwritten anyway; account for
		// them and materialize only the retained suffix.
		r.seq += uint64(n - cap)
		r.count += uint64(n - cap)
		n = cap
	}
	for i := 0; i < n; i++ {
		r.Record(reason, from, handler)
	}
}

// Len reports how many events were ever recorded (not just retained).
func (r *Recorder) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.count
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil || r.count == 0 {
		return nil
	}
	n := len(r.ring)
	retained := int(r.count)
	if retained > n {
		retained = n
	}
	out := make([]Event, 0, retained)
	start := (r.next - retained + n) % n
	for i := 0; i < retained; i++ {
		out = append(out, r.ring[(start+i)%n])
	}
	return out
}

// Reset discards all events.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.next = 0
	r.count = 0
	r.seq = 0
}

// Timeline renders the retained events as an indented exit timeline: deeper
// handler levels indent further, so a forwarded exit visually contains the
// trap storm it causes.
func (r *Recorder) Timeline() string {
	evs := r.Events()
	if len(evs) == 0 {
		return "(no exits recorded)\n"
	}
	var b strings.Builder
	for _, e := range evs {
		indent := strings.Repeat("  ", e.HandlerLevel)
		fmt.Fprintf(&b, "%6d %s%-20s from L%d -> handled by L%d\n",
			e.Seq, indent, e.Reason.String(), e.FromLevel, e.HandlerLevel)
	}
	return b.String()
}
