package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock at %d, want 0", c.Now())
	}
	if got := c.Advance(100); got != 100 {
		t.Fatalf("Advance returned %d, want 100", got)
	}
	c.AdvanceTo(250)
	if c.Now() != 250 {
		t.Fatalf("clock at %d, want 250", c.Now())
	}
}

func TestClockBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo backwards did not panic")
		}
	}()
	var c Clock
	c.Advance(10)
	c.AdvanceTo(5)
}

func TestCyclesString(t *testing.T) {
	cases := map[Cycles]string{
		0:         "0",
		999:       "999",
		1000:      "1,000",
		37733:     "37,733",
		857578:    "857,578",
		1_000_000: "1,000,000",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("Cycles(%d).String() = %q, want %q", uint64(in), got, want)
		}
	}
}

func TestDurationRoundTrip(t *testing.T) {
	// One second at the default clock is exactly DefaultClockHz cycles.
	c := FromDuration(time.Second, 0)
	if c != DefaultClockHz {
		t.Fatalf("FromDuration(1s) = %d, want %d", c, uint64(DefaultClockHz))
	}
	if d := c.Duration(0); d != time.Second {
		t.Fatalf("Duration = %v, want 1s", d)
	}
	// 1,575 cycles at 2.2 GHz is ~716 ns.
	d := Cycles(1575).Duration(0)
	if d < 700*time.Nanosecond || d > 720*time.Nanosecond {
		t.Fatalf("1575 cycles = %v, want ~716ns", d)
	}
}

func TestDurationRoundTripProperty(t *testing.T) {
	f := func(ms uint16) bool {
		d := time.Duration(ms) * time.Millisecond
		c := FromDuration(d, DefaultClockHz)
		back := c.Duration(DefaultClockHz)
		diff := back - d
		if diff < 0 {
			diff = -diff
		}
		return diff <= time.Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// armAt arms a fresh timer whose expiry appends id to *order.
func armAt(e *Engine, when Time, id int, order *[]int) *Timer {
	t := NewTimer(func() { *order = append(*order, id) })
	e.Arm(&t, when)
	return &t
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	armAt(e, 30, 3, &order)
	armAt(e, 10, 1, &order)
	armAt(e, 20, 2, &order)
	if n := e.RunUntil(100); n != 3 {
		t.Fatalf("RunUntil fired %d timers, want 3", n)
	}
	if e.Now() != 100 {
		t.Fatalf("clock at %d, want 100", e.Now())
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order %v, want [1 2 3]", order)
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	timers := make([]*Timer, 10)
	for i := range timers {
		timers[i] = armAt(e, 5, i, &order)
	}
	// Re-arming at the same deadline moves a timer behind the others: the
	// tiebreak is arm order, not creation order.
	e.Arm(timers[0], 5)
	e.RunUntil(5)
	want := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 0}
	if len(order) != len(want) {
		t.Fatalf("equal deadlines fired as %v, want %v", order, want)
	}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("equal deadlines fired as %v, want %v", order, want)
		}
	}
}

func TestEngineCascade(t *testing.T) {
	// A callback may re-arm its own timer: the timer is disarmed before the
	// callback runs.
	e := NewEngine()
	count := 0
	var tick Timer
	tick = NewTimer(func() {
		count++
		if count < 5 {
			e.Arm(&tick, e.Now()+100)
		}
	})
	e.Arm(&tick, 100)
	e.RunUntil(10_000)
	if count != 5 {
		t.Fatalf("fired %d ticks, want 5", count)
	}
	if e.Armed() != 0 {
		t.Fatalf("%d timers armed after the cascade ended, want 0", e.Armed())
	}
}

func TestEngineDisarm(t *testing.T) {
	e := NewEngine()
	var order []int
	tm := armAt(e, 10, 1, &order)
	e.Disarm(tm)
	e.Disarm(tm) // disarming a disarmed timer is a no-op
	e.RunUntil(100)
	if len(order) != 0 {
		t.Fatal("disarmed timer fired")
	}
	if e.Armed() != 0 {
		t.Fatalf("%d timers armed, want 0", e.Armed())
	}
}

func TestEngineDisarmMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var fired []int
	var timers []*Timer
	for i := 0; i < 8; i++ {
		timers = append(timers, armAt(e, Time(10+i), i, &fired))
	}
	e.Disarm(timers[3])
	e.Disarm(timers[5])
	e.RunUntil(100)
	want := []int{0, 1, 2, 4, 6, 7}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var order []int
	armAt(e, 1000, 1, &order)
	armAt(e, 1001, 2, &order)
	if n := e.RunUntil(1000); n != 1 {
		t.Fatalf("fired %d timers, want 1 (the deadline at the limit fires)", n)
	}
	if e.Now() != 1000 {
		t.Fatalf("clock at %d, want exactly 1000", e.Now())
	}
	if e.Armed() != 1 {
		t.Fatalf("%d timers armed, want 1", e.Armed())
	}
	// A limit in the past fires nothing and leaves the clock alone.
	if n := e.RunUntil(10); n != 0 || e.Now() != 1000 {
		t.Fatalf("RunUntil(past) fired %d, clock %d", n, e.Now())
	}
}

func TestEngineArmPastFiresNow(t *testing.T) {
	e := NewEngine()
	e.RunUntil(500)
	var at Time
	tm := NewTimer(func() { at = e.Now() })
	e.Arm(&tm, 100)
	if n := e.RunUntil(500); n != 1 || at != 500 {
		t.Fatalf("past deadline: fired %d at %d, want 1 at 500", n, at)
	}
}

func TestEngineArmEndOfTimeline(t *testing.T) {
	// The largest deadline is an ordinary one: it fires when the clock
	// reaches the end of the timeline and not before.
	e := NewEngine()
	fired := false
	tm := NewTimer(func() { fired = true })
	e.Arm(&tm, ^Time(0))
	e.RunUntil(^Time(0) - 1)
	if fired {
		t.Fatal("end-of-timeline deadline fired early")
	}
	if n := e.RunUntil(^Time(0)); n != 1 || !fired || e.Now() != ^Time(0) {
		t.Fatalf("end-of-timeline deadline: fired %d, clock %d", n, e.Now())
	}
}

// TestEngineMatchesReference drives random arm, re-arm, disarm and RunUntil
// sequences over a few timers and checks every expiry against a brute-force
// model: each timer holds at most its last-armed deadline, and RunUntil fires
// the due ones by (deadline, arm order).
func TestEngineMatchesReference(t *testing.T) {
	type ref struct {
		armed     bool
		when, seq uint64
	}
	type fire struct {
		id int
		at Time
	}
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		e := NewEngine()
		const n = 5
		var got []fire
		timers := make([]Timer, n)
		for i := range timers {
			i := i
			timers[i] = NewTimer(func() { got = append(got, fire{i, e.Now()}) })
		}
		var model [n]ref
		var now, seq uint64
		for step := 0; step < 200; step++ {
			id := rng.Intn(n)
			switch rng.Intn(4) {
			case 0, 1: // arm or re-arm, sometimes in the past
				when := now + uint64(rng.Intn(200))
				if rng.Intn(8) == 0 && now > 0 {
					when = now - 1
				}
				e.Arm(&timers[id], Time(when))
				seq++
				if when < now {
					when = now
				}
				model[id] = ref{true, when, seq}
			case 2:
				e.Disarm(&timers[id])
				model[id].armed = false
			case 3:
				limit := now + uint64(rng.Intn(150))
				got = got[:0]
				e.RunUntil(Time(limit))
				var want []fire
				for {
					best := -1
					for j := range model {
						m := model[j]
						if !m.armed || m.when > limit {
							continue
						}
						if best < 0 || m.when < model[best].when ||
							(m.when == model[best].when && m.seq < model[best].seq) {
							best = j
						}
					}
					if best < 0 {
						break
					}
					want = append(want, fire{best, Time(model[best].when)})
					model[best].armed = false
				}
				if limit > now {
					now = limit
				}
				if len(got) != len(want) {
					t.Logf("seed %d step %d: fired %v, want %v", seed, step, got, want)
					return false
				}
				for k := range want {
					if got[k] != want[k] {
						t.Logf("seed %d step %d: fired %v, want %v", seed, step, got, want)
						return false
					}
				}
			}
			armed := 0
			for _, m := range model {
				if m.armed {
					armed++
				}
			}
			if e.Armed() != armed || uint64(e.Now()) != now {
				t.Logf("seed %d step %d: engine armed=%d now=%d, model armed=%d now=%d", seed, step, e.Armed(), e.Now(), armed, now)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineArmFireAllocFree(t *testing.T) {
	e := NewEngine()
	timers := make([]Timer, 4)
	for i := range timers {
		timers[i] = NewTimer(func() {})
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range timers {
			e.Arm(&timers[i], e.Now()+Time(10+i))
		}
		e.Arm(&timers[0], e.Now()+50) // re-arm in place
		e.Disarm(&timers[1])
		e.RunUntil(e.Now() + 100)
	})
	if allocs != 0 {
		t.Fatalf("arm, re-arm, disarm and fire allocate %.1f times per round, want 0", allocs)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnProperty(t *testing.T) {
	r := NewRNG(11)
	f := func(n uint8) bool {
		m := int(n%100) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGBernoulliExtremes(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(5)
	const mean = 10000
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(mean))
	}
	got := sum / n
	if got < 0.95*mean || got > 1.05*mean {
		t.Fatalf("Exp mean = %.0f, want ~%d", got, mean)
	}
}
