package workload_test

import (
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkRunFor measures the warm per-transaction host cost of the
// workload driver: a depth-3 DVH stack runs the Memcached mix in 10 ms
// chunks of simulated time, after a warm-up that compiles every plan the mix
// reaches. Each iteration is one chunk; ns/txn divides the host time by the
// transactions the chunks ran, so it is comparable across chunk sizes.
func BenchmarkRunFor(b *testing.B) {
	st, err := experiment.Build(experiment.Spec{Depth: 3, IO: experiment.IODVH})
	if err != nil {
		b.Fatal(err)
	}
	p, ok := workload.ProfileByName("Memcached")
	if !ok {
		b.Fatal("no Memcached profile")
	}
	r := &workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p, RNG: sim.NewRNG(1)}
	chunk := sim.FromDuration(10*time.Millisecond, sim.DefaultClockHz)
	for i := 0; i < 3; i++ {
		if _, err := r.RunFor(chunk); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	txns := 0
	for i := 0; i < b.N; i++ {
		res, err := r.RunFor(chunk)
		if err != nil {
			b.Fatal(err)
		}
		txns += res.Transactions
	}
	b.StopTimer()
	if txns > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(txns), "ns/txn")
	}
}
