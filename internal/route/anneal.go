package route

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/metrics"
)

// AnnealRouter implements core.Router with simulated annealing over
// the space SABRE's restarts only sample: candidate initial mappings,
// each scored by the SWAP-insertion cost of one deterministic routing
// traversal. Neighbouring states differ by one transposition of the
// layout; worse states are accepted with probability exp(-Δ/T) under a
// geometric cooling schedule, so the chain can climb out of the local
// minima a greedy restart is stuck with. Options.Trials independent
// chains run from distinct seeds as the trials of a core.TrialRunner
// and the best routed circuit wins (fewest added gates, ties by
// decomposed depth, then lowest seed).
//
// The router is deterministic for a fixed Options.Seed and honors ctx
// cancellation at every annealing step.
type AnnealRouter struct {
	// Iterations is the annealing step count per chain (0 = 64).
	Iterations int

	// Chains overrides Options.Trials as the number of independent
	// annealing chains (0 = Options.Trials).
	Chains int
}

// defaultAnnealIterations balances search quality against the cost of
// one full routing traversal per step.
const defaultAnnealIterations = 64

// Name implements core.Router.
func (AnnealRouter) Name() string { return "anneal" }

// Route implements core.Router. The chains run on one worker: jobs,
// not chains, are the batch engine's unit of parallelism.
func (r AnnealRouter) Route(ctx context.Context, circ *circuit.Circuit, dev *arch.Device, opts core.Options) (*core.Result, error) {
	//sabre:nondeterm-ok wall-clock elapsed metric; never feeds routing decisions
	start := time.Now()
	wide, dev, opts, err := widen(circ, dev, opts)
	if err != nil {
		return nil, err
	}
	iters := r.Iterations
	if iters <= 0 {
		iters = defaultAnnealIterations
	}
	chains := r.Chains
	if chains <= 0 {
		chains = opts.Trials
	}
	// Every annealing step re-routes the same circuit, so its tables
	// are built once here and shared by all chains.
	runner := core.NewPassRunner(wide, dev, opts)
	chain := func(ctx context.Context, chain int, s *core.Scratch) (*core.Result, int, error) {
		return anneal(ctx, runner, dev.NumQubits(), iters, s.Seeded(opts.Seed+int64(chain)), s)
	}
	best, err := core.TrialRunner{Trials: chains, Workers: 1}.Run(ctx, chain)
	if err != nil {
		return nil, err
	}
	best.Elapsed = time.Since(start)
	return best, nil
}

// anneal runs one chain of iters steps on an n-qubit device from a
// random layout drawn from rng and returns its best state, by added
// gates, then decomposed depth, the earliest step winning ties, with
// that depth. Depth is computed only for states that tie or beat the
// incumbent's cost, keeping most steps to one routing pass.
func anneal(ctx context.Context, runner *core.PassRunner, n, iters int, rng *rand.Rand, s *core.Scratch) (*core.Result, int, error) {
	cur := mapping.Random(n, rng)
	curPass, err := runner.RunContext(ctx, cur, rng, s)
	if err != nil {
		return nil, 0, err
	}
	curCost := addedGates(curPass)
	best, bestCost, bestDepth := curPass, curCost, depth(curPass)
	if n < 2 {
		// No transposition exists on a single-qubit device; the chain
		// is just its starting traversal.
		return passToResult(best), bestDepth, nil
	}
	// Temperature is scaled to the chain's starting cost so the early
	// acceptance rate is workload-independent; it then cools
	// geometrically to ~2% of the start.
	t0 := math.Max(1, float64(curCost)/3)
	cooling := math.Pow(0.02, 1/math.Max(1, float64(iters-1)))
	temp := t0
	for i := 0; i < iters; i++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		cand := cur.Clone()
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		cand.SwapPhysical(a, b)
		candPass, err := runner.RunContext(ctx, cand, rng, s)
		if err != nil {
			return nil, 0, err
		}
		candCost := addedGates(candPass)
		if candCost <= curCost || rng.Float64() < math.Exp(float64(curCost-candCost)/temp) {
			cur, curPass, curCost = cand, candPass, candCost
			if curCost <= bestCost {
				if d := depth(curPass); curCost < bestCost || d < bestDepth {
					best, bestCost, bestDepth = curPass, curCost, d
				}
			}
		}
		temp *= cooling
	}
	return passToResult(best), bestDepth, nil
}

// depth is the decomposed depth of a traversal's circuit: a SWAP
// counts as its 3 CX, without building the decomposed copy.
func depth(p core.PassResult) int { return metrics.Measure(p.Circuit).Depth }

// addedGates is the routing cost of one traversal: 3 gates per SWAP
// and per bridge.
func addedGates(p core.PassResult) int {
	return 3 * (p.SwapCount + p.BridgeCount)
}

// passToResult lifts a single traversal's PassResult to the Router
// result contract.
func passToResult(p core.PassResult) *core.Result {
	added := addedGates(p)
	return &core.Result{
		Circuit:             p.Circuit,
		InitialLayout:       p.InitialLayout.LogicalToPhysical(),
		FinalLayout:         p.FinalLayout.LogicalToPhysical(),
		SwapCount:           p.SwapCount,
		BridgeCount:         p.BridgeCount,
		AddedGates:          added,
		FirstTraversalAdded: added,
		Stats:               p.Stats,
	}
}

// widen mirrors core.Prepare for routers that drive core.RoutePass
// directly: it applies the noise-driven edge pruning of
// Options.MaxEdgeError (so these backends honor the same
// excluded-coupler contract as sabre), validates circ against the
// effective device, and pads the circuit to the device width. It also
// resolves the Trials default this package reads itself (RoutePass
// normalizes the remaining knobs internally). Routing must happen on
// the returned device.
func widen(circ *circuit.Circuit, dev *arch.Device, opts core.Options) (*circuit.Circuit, *arch.Device, core.Options, error) {
	if opts.Noise != nil && opts.MaxEdgeError > 0 {
		dev = arch.PruneUnreliableEdges(dev, opts.Noise, opts.MaxEdgeError)
	}
	if circ.NumQubits() > dev.NumQubits() {
		return nil, nil, opts, fmt.Errorf("route: circuit needs %d qubits but device %s has %d",
			circ.NumQubits(), dev.Name(), dev.NumQubits())
	}
	if opts.Trials <= 0 {
		opts.Trials = core.DefaultOptions().Trials
	}
	if circ.NumQubits() < dev.NumQubits() {
		circ = circ.Widen(dev.NumQubits())
	}
	return circ, dev, opts, nil
}
