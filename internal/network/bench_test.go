package network

import (
	"testing"

	"combining/internal/core"
)

// BenchmarkOmegaHotCycle times one serial cycle of the 1,024-processor
// omega machine under the hot-spot load (h = 0.125, rate 0.9, window 4,
// queue capacity 4, unbounded wait buffers) after 150 warm cycles.  One op
// is one cycle, so ns/op is host nanoseconds per simulated cycle.
func BenchmarkOmegaHotCycle(b *testing.B) {
	const n = 1024
	inj := make([]Injector, n)
	for p := range inj {
		inj[p] = NewStochastic(p, n, TrafficConfig{Rate: 0.9, HotFraction: 0.125, Window: 4}, 1)
	}
	sim := NewSim(Config{Procs: n, QueueCap: 4, WaitBufCap: core.Unbounded, Workers: 1}, inj)
	sim.Run(150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}
