package sim

import "container/heap"

// Timer is one deadline on the engine's timeline: the hrtimer behind a
// vCPU's LAPIC TSC deadline. It is embedded in its owner and bound to its
// expiry callback once, when the owner is created, so arming, re-arming and
// disarming move the timer inside the engine's heap without allocating. A
// timer holds one deadline at a time: re-arming replaces it, so an
// overwritten deadline can never fire. A Timer must not be copied while
// armed.
type Timer struct {
	when Time
	seq  uint64 // arm order: FIFO tiebreak between equal deadlines
	slot int    // heap index + 1; 0 while disarmed
	fire func()
}

// NewTimer returns a disarmed timer that calls fire when it expires.
func NewTimer(fire func()) Timer { return Timer{fire: fire} }

type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].slot = i + 1
	h[j].slot = j + 1
}
func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.slot = len(*h) + 1
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.slot = 0
	*h = old[:n-1]
	return t
}

// Engine is the deterministic simulation kernel: a clock and a min-heap of
// armed timers keyed on (deadline, arm order). Timers fire in deadline
// order; timers with equal deadlines fire in the order they were armed. The
// engine is single-threaded by design: determinism matters more to the
// experiments than host parallelism, and the paper's phenomena (exit
// multiplication, interrupt latency) are properties of the simulated
// timeline, not of host concurrency.
type Engine struct {
	clock  Clock
	timers timerHeap
	seq    uint64
}

// NewEngine returns an engine with the clock at time zero and no timers.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.clock.Now() }

// Arm sets t to expire at when, replacing any deadline it held. A deadline
// already in the past expires at the current time, on the next RunUntil.
func (e *Engine) Arm(t *Timer, when Time) {
	if now := e.clock.Now(); when < now {
		when = now
	}
	e.seq++
	t.when, t.seq = when, e.seq
	if t.slot != 0 {
		heap.Fix(&e.timers, t.slot-1)
		return
	}
	heap.Push(&e.timers, t)
}

// Disarm removes t from the timeline; disarming a disarmed timer is a no-op.
func (e *Engine) Disarm(t *Timer) {
	if t.slot != 0 {
		heap.Remove(&e.timers, t.slot-1)
	}
}

// Armed returns the number of timers waiting to expire.
func (e *Engine) Armed() int { return len(e.timers) }

// RunUntil expires, in order, every timer whose deadline is at or before
// limit, advancing the clock to each deadline before calling its callback,
// then advances the clock to limit. A timer is disarmed before its callback
// runs, so the callback may re-arm it. It returns the number of timers that
// expired.
func (e *Engine) RunUntil(limit Time) int {
	n := 0
	for len(e.timers) > 0 && e.timers[0].when <= limit {
		t := heap.Pop(&e.timers).(*Timer)
		e.clock.AdvanceTo(t.when)
		t.fire()
		n++
	}
	if limit > e.clock.Now() {
		e.clock.AdvanceTo(limit)
	}
	return n
}
