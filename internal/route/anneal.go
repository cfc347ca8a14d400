package route

import (
	"context"
	"math"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/mapping"
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
	// Every annealing step re-routes the same circuit, so its tables
	// are built once here and shared by all chains.
	p, err := core.Prepare(circ, dev, opts)
	if err != nil {
		return nil, err
	}
	iters := r.Iterations
	if iters <= 0 {
		iters = defaultAnnealIterations
	}
	chains := r.Chains
	if chains <= 0 {
		chains = p.Options().Trials
	}
	seed := p.Options().Seed
	chain := func(ctx context.Context, chain int, s *core.Scratch) (*core.Result, int, error) {
		return anneal(ctx, p, iters, s.Seeded(seed+int64(chain)), s)
	}
	best, err := core.TrialRunner{Trials: chains, Workers: 1}.Run(ctx, chain)
	if err != nil {
		return nil, err
	}
	best.Elapsed = time.Since(start)
	return best, nil
}

// anneal runs one chain of iters steps from a random layout drawn from
// rng and returns its best state, by added gates, then decomposed
// depth, the earliest step winning ties, with that depth. A step's
// traversal records its op log in s; only a step that ties or beats
// the incumbent's cost takes its depth, and only one that wins copies
// its log out (Traversal.Keep). The chain's state is one layout,
// transposed in place for each step and back if the step is rejected.
func anneal(ctx context.Context, p *core.Prepared, iters int, rng *rand.Rand, s *core.Scratch) (*core.Result, int, error) {
	n := p.Device().NumQubits()
	cur := mapping.Random(n, rng)
	t, err := p.Traverse(ctx, cur, rng, s)
	if err != nil {
		return nil, 0, err
	}
	curCost := t.Added
	best, bestCost, bestDepth := t.Keep(), curCost, t.Depth()
	if n < 2 {
		// No transposition exists on a single-qubit device; the chain
		// is just its starting traversal.
		return best, bestDepth, nil
	}
	cur = cur.Clone() // best's log starts from the old one
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
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		cur.SwapPhysical(a, b)
		t, err := p.Traverse(ctx, cur, rng, s)
		if err != nil {
			return nil, 0, err
		}
		if t.Added <= curCost || rng.Float64() < math.Exp(float64(curCost-t.Added)/temp) {
			curCost = t.Added
			if curCost <= bestCost {
				if d := t.Depth(); curCost < bestCost || d < bestDepth {
					best, bestCost, bestDepth = t.Keep(), curCost, d
					cur = cur.Clone()
				}
			}
		} else {
			cur.SwapPhysical(a, b) // rejected: undo the transposition
		}
		temp *= cooling
	}
	return best, bestDepth, nil
}
