package route

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/verify"
	"repro/internal/workloads"
)

// newRouters returns the heuristic this package contributes, with a
// small search budget so tests stay fast.
func newRouters() map[string]core.Router {
	return map[string]core.Router{
		"anneal": AnnealRouter{Iterations: 16, Chains: 2},
	}
}

func testOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Trials = 2
	opts.Seed = 7
	return opts
}

func TestRoutersProduceCompliantCircuits(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	for _, circ := range []*circuit.Circuit{workloads.QFT(8), workloads.GHZ(12)} {
		for name, r := range newRouters() {
			res, err := r.Route(context.Background(), circ, dev, testOptions())
			if err != nil {
				t.Fatalf("%s(%s): %v", name, circ.Name(), err)
			}
			if err := verify.HardwareCompliant(res.Circuit.DecomposeSwaps(), dev.Connected); err != nil {
				t.Fatalf("%s(%s) output not compliant: %v", name, circ.Name(), err)
			}
			if res.AddedGates != 3*(res.SwapCount+res.BridgeCount) {
				t.Fatalf("%s(%s): AddedGates %d != 3*(%d+%d)", name, circ.Name(), res.AddedGates, res.SwapCount, res.BridgeCount)
			}
			if res.TrialsRun != 2 {
				t.Fatalf("%s(%s): TrialsRun = %d, want 2", name, circ.Name(), res.TrialsRun)
			}
		}
	}
}

// TestRoutersPreserveLinearSemantics checks exact GF(2) equivalence of
// the routed output under the reported layouts — the strongest
// correctness check available for CNOT circuits, and the one the
// pipeline's verify pass will apply to these backends.
func TestRoutersPreserveLinearSemantics(t *testing.T) {
	dev := arch.Grid(3, 3)
	circ := circuit.New(6)
	circ.Append(
		circuit.CX(0, 5), circuit.CX(1, 4), circuit.CX(2, 3),
		circuit.CX(5, 1), circuit.CX(3, 0), circuit.CX(4, 2),
		circuit.CX(0, 4), circuit.CX(5, 2),
	)
	for name, r := range newRouters() {
		res, err := r.Route(context.Background(), circ, dev, testOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify.CheckRouted(circ, res.Circuit, res.InitialLayout, res.FinalLayout); err != nil {
			t.Fatalf("%s routed circuit not equivalent: %v", name, err)
		}
	}
}

func TestRoutersDeterministicPerSeed(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(6)
	for name, r := range newRouters() {
		a, err := r.Route(context.Background(), circ, dev, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.Route(context.Background(), circ, dev, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !a.Circuit.Equal(b.Circuit) {
			t.Fatalf("%s: same seed produced different circuits", name)
		}
		if a.AddedGates != b.AddedGates {
			t.Fatalf("%s: same seed produced different costs %d vs %d", name, a.AddedGates, b.AddedGates)
		}
	}
}

func TestRoutersHonorCancellation(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, r := range newRouters() {
		if _, err := r.Route(ctx, circ, dev, testOptions()); err != context.Canceled {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestRoutersHandleSingleQubitDevices is the regression test for the
// rng.Intn(0) panic: a 1-qubit device admits no transposition, and
// routing a 1-qubit circuit on it must succeed without SWAPs.
func TestRoutersHandleSingleQubitDevices(t *testing.T) {
	dev := arch.Line(1)
	circ := circuit.New(1)
	circ.Append(circuit.G1(circuit.KindH, 0))
	for name, r := range newRouters() {
		res, err := r.Route(context.Background(), circ, dev, testOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.SwapCount != 0 {
			t.Fatalf("%s inserted %d SWAPs on a 1-qubit device", name, res.SwapCount)
		}
	}
}

// TestRoutersHonorEdgePruning is the regression test for the
// noise-constraint violation: with MaxEdgeError set, no backend may
// emit a two-qubit gate on an excluded coupler — the same contract the
// sabre backend honors via core's effectiveDevice.
func TestRoutersHonorEdgePruning(t *testing.T) {
	dev := arch.Ring(6)
	bad := arch.NewEdge(2, 3)
	noise := &arch.NoiseModel{Default: 0.01, EdgeError: map[arch.Edge]float64{bad: 0.5}}
	opts := testOptions()
	opts.Noise = noise
	opts.MaxEdgeError = 0.1
	circ := workloads.QFT(6)
	for name, r := range newRouters() {
		res, err := r.Route(context.Background(), circ, dev, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, g := range res.Circuit.DecomposeSwaps().Gates() {
			if g.TwoQubit() && arch.NewEdge(g.Q0, g.Q1) == bad {
				t.Fatalf("%s routed a gate across the excluded coupler %v", name, bad)
			}
		}
	}
}

func TestRoutersRejectOversizedCircuits(t *testing.T) {
	dev := arch.Line(3)
	circ := workloads.GHZ(5)
	for name, r := range newRouters() {
		if _, err := r.Route(context.Background(), circ, dev, testOptions()); err == nil {
			t.Fatalf("%s accepted a circuit wider than the device", name)
		}
	}
}
