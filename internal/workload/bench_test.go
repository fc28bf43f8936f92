package workload_test

import (
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/workload"
)

// warmRunFor returns BenchmarkRunFor's runner, a depth-3 DVH stack driving
// the Memcached mix, after three warm-up chunks that compile every plan the
// mix reaches and arm every vCPU's timer. chunk is 10 ms of simulated time.
func warmRunFor(tb testing.TB) (r *workload.Runner, chunk sim.Cycles) {
	st, err := experiment.Build(experiment.Spec{Depth: 3, IO: experiment.IODVH})
	if err != nil {
		tb.Fatal(err)
	}
	p, ok := workload.ProfileByName("Memcached")
	if !ok {
		tb.Fatal("no Memcached profile")
	}
	r = &workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p, RNG: sim.NewRNG(1)}
	chunk = sim.FromDuration(10*time.Millisecond, sim.DefaultClockHz)
	for i := 0; i < 3; i++ {
		if _, err := r.RunFor(chunk); err != nil {
			tb.Fatal(err)
		}
	}
	return r, chunk
}

// TestRunForChunkAllocFree pins the warm workload driver at zero
// allocations per RunFor chunk: transactions, timer re-arms, and the timer
// expiries and deliveries the chunk's engine advance fires.
func TestRunForChunkAllocFree(t *testing.T) {
	r, chunk := warmRunFor(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := r.RunFor(chunk); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RunFor allocates %.1f times per 10 ms chunk, want 0", allocs)
	}
}

// BenchmarkRunFor measures the warm per-transaction host cost of the
// workload driver: a depth-3 DVH stack runs the Memcached mix in 10 ms
// chunks of simulated time, after a warm-up that compiles every plan the mix
// reaches. Each iteration is one chunk; ns/txn divides the host time by the
// transactions the chunks ran, so it is comparable across chunk sizes.
func BenchmarkRunFor(b *testing.B) {
	r, chunk := warmRunFor(b)
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
