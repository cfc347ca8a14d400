package route

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workloads"
)

// TestAnnealBytesPerGatePerStep is the byte guard on the annealing
// chain: a warm AnnealRouter{Iterations: 16, Chains: 1} (17 recorded
// traversals) allocates at most 16 B per input gate per step, the
// Prepare, the worker's scratch, the chain's kept op logs and the
// winner's circuit included. It measures 13.1 on rd84_142 and 8.7 on
// qft_20. When every step built its routed circuit and cloned its
// layout it measured 79.4 and 70.9.
func TestAnnealBytesPerGatePerStep(t *testing.T) {
	const iters = 16
	dev := arch.IBMQ20Tokyo()
	r := AnnealRouter{Iterations: iters, Chains: 1}
	for _, name := range []string{"rd84_142", "qft_20"} {
		b, _ := workloads.ByName(name)
		circ := b.Build()
		route := func() {
			if _, err := r.Route(context.Background(), circ, dev, core.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		}
		route() // warm the device's distance matrices
		var least uint64
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			route()
			runtime.ReadMemStats(&after)
			if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < least {
				least = d
			}
		}
		perGate := float64(least) / float64(circ.NumGates()) / (iters + 1)
		t.Logf("%s: %.1f B/gate per step", name, perGate)
		if perGate > 16 {
			t.Errorf("%s: a warm anneal step allocates %.1f B per gate, want <= 16", name, perGate)
		}
	}
}
