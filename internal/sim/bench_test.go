package sim

import "testing"

// BenchmarkEngineArmFire re-arms four timers and fires the earliest each
// iteration, the shape of RunFor's per-transaction engine work.
func BenchmarkEngineArmFire(b *testing.B) {
	e := NewEngine()
	timers := make([]Timer, 4)
	for i := range timers {
		timers[i] = NewTimer(func() {})
		e.Arm(&timers[i], Time(i+1))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Arm(&timers[i%len(timers)], e.Now()+Time(1+i%7))
		e.RunUntil(e.Now() + 2)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}
