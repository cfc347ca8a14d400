package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/mapping"
)

// newWhiteboxRouter builds a router mid-flight for white-box tests,
// through the same Prepared setup real traversals use (the ready list
// comes seeded with the DAG sources).
func newWhiteboxRouter(t *testing.T, dev *arch.Device, c *circuit.Circuit, layout mapping.Layout) *router {
	t.Helper()
	return newPrepared(c, dev, DefaultOptions()).newRouter(layout, rand.New(rand.NewSource(1)), nil, false, nil)
}

// refreshExtended forces an extended-set recomputation regardless of
// the front-generation cache (tests mutate router state in ways the
// cache cannot see).
func (r *router) refreshExtended() {
	r.frontGen++
	r.ensureExtended()
}

// prepareRound refreshes everything scoreSwapExhaustive relies on: the
// extended set and the per-round Eq. 2 reciprocals.
func (r *router) prepareRound() {
	r.refreshExtended()
	r.setRoundScale()
}

// newTestRouter builds the Fig. 6 scenario — a 3×3 grid, front layer
// {CX(q0,q6), CX(q2,q7)}, identity layout.
func newTestRouter(t *testing.T) *router {
	t.Helper()
	dev := arch.Grid(3, 3)
	c := circuit.New(9)
	c.Append(
		circuit.CX(0, 6), // front (distance 2)
		circuit.CX(2, 7), // front (distance 2)
		circuit.CX(1, 6), // successor, shares q6
	)
	r := newWhiteboxRouter(t, dev, c, mapping.Identity(9))
	r.s.front = append(r.s.front, 0, 1)
	return r
}

func TestCollectCandidatesOnlyFrontAdjacent(t *testing.T) {
	r := newTestRouter(t)
	r.collectCandidates()
	if len(r.s.candIDs) == 0 {
		t.Fatal("no candidates")
	}
	frontPhys := map[int]bool{0: true, 6: true, 2: true, 7: true}
	for i := range r.s.candIDs {
		e := r.candidate(i)
		if !frontPhys[e.A] && !frontPhys[e.B] {
			t.Fatalf("candidate %v touches no front qubit (paper Fig. 6: low-priority SWAPs are pruned)", e)
		}
	}
	// No duplicates.
	seen := map[arch.Edge]bool{}
	for i := range r.s.candIDs {
		e := r.candidate(i)
		if seen[e] {
			t.Fatalf("duplicate candidate %v", e)
		}
		seen[e] = true
	}
}

func TestCollectExtendedSet(t *testing.T) {
	r := newTestRouter(t)
	r.refreshExtended()
	// Gate 2 (CX(1,6)) is the lone successor.
	if len(r.s.extended) != 1 || r.s.extended[0] != 2 {
		t.Fatalf("extended = %v, want [2]", r.s.extended)
	}
	// Basic heuristic skips the extended set entirely.
	r.opts.Heuristic = HeuristicBasic
	r.refreshExtended()
	if len(r.s.extended) != 0 {
		t.Fatal("basic heuristic should not build an extended set")
	}
}

func TestExtendedSetCachedWhileFrontUnchanged(t *testing.T) {
	r := newTestRouter(t)
	r.refreshExtended()
	rebuilds := r.stats.ExtendedRebuilds
	// Same front generation: served from cache, no recomputation —
	// this is what spares tryBridge+insertBestSwap the double walk.
	r.ensureExtended()
	r.ensureExtended()
	if r.stats.ExtendedRebuilds != rebuilds {
		t.Fatalf("extended set recomputed %d times for an unchanged front",
			r.stats.ExtendedRebuilds-rebuilds)
	}
	if len(r.s.extended) != 1 || r.s.extended[0] != 2 {
		t.Fatalf("cached extended = %v, want [2]", r.s.extended)
	}
	// Front change invalidates.
	r.frontGen++
	r.ensureExtended()
	if r.stats.ExtendedRebuilds != rebuilds+1 {
		t.Fatal("front change did not trigger a rebuild")
	}
}

func TestExtendedSetRespectsLimit(t *testing.T) {
	dev := arch.Line(4)
	c := circuit.New(4)
	for i := 0; i < 30; i++ {
		c.Append(circuit.CX(0, 1))
	}
	r := newWhiteboxRouter(t, dev, c, mapping.Identity(4))
	r.opts.ExtendedSetSize = 5
	r.s.front = append(r.s.front, 0)
	r.refreshExtended()
	if len(r.s.extended) > 5 {
		t.Fatalf("extended set %d exceeds limit 5", len(r.s.extended))
	}
}

func TestFrontDistanceSumEq1(t *testing.T) {
	r := newTestRouter(t)
	// Identity layout on the 3×3 grid (row-major): dist(0,6)=2 and
	// dist(2,7)=3, so Eq. 1 sums to 5.
	if got := r.frontDistanceSum(); got != 5 {
		t.Fatalf("H_basic = %g, want 5", got)
	}
}

func TestScoreSwapRestoresLayout(t *testing.T) {
	r := newTestRouter(t)
	before := r.layout.Clone()
	for _, h := range []Heuristic{HeuristicBasic, HeuristicLookahead, HeuristicDecay} {
		r.opts.Heuristic = h
		r.prepareRound()
		_ = r.scoreSwapExhaustive(arch.NewEdge(0, 3))
		if !r.layout.Equal(before) {
			t.Fatalf("%v: scoreSwapExhaustive mutated the layout", h)
		}
	}
}

func TestScoreSwapPrefersHelpfulSwap(t *testing.T) {
	r := newTestRouter(t)
	r.opts.Heuristic = HeuristicBasic
	r.prepareRound()
	// Swapping 0↔3 moves q0 one step toward q6: front sum 4 → 3.
	helpful := r.scoreSwapExhaustive(arch.NewEdge(0, 3))
	// Swapping 0↔1 leaves both distances at best unchanged.
	neutral := r.scoreSwapExhaustive(arch.NewEdge(0, 1))
	if helpful >= neutral {
		t.Fatalf("helpful swap scored %g, neutral %g", helpful, neutral)
	}
}

func TestDecayBiasesAgainstReusedQubits(t *testing.T) {
	r := newTestRouter(t)
	r.opts.Heuristic = HeuristicDecay
	r.prepareRound()
	base := r.scoreSwapExhaustive(arch.NewEdge(0, 3))
	// Mark logical q0 (on phys 0) as recently swapped.
	r.s.decay[0] = 1.5
	biased := r.scoreSwapExhaustive(arch.NewEdge(0, 3))
	if biased <= base {
		t.Fatalf("decay did not raise the score: %g vs %g", biased, base)
	}
	// An edge not touching q0 is unaffected.
	r.prepareRound()
	other := r.scoreSwapExhaustive(arch.NewEdge(7, 8))
	r.s.decay[0] = 1
	otherBase := r.scoreSwapExhaustive(arch.NewEdge(7, 8))
	if other != otherBase {
		t.Fatalf("decay leaked to unrelated swap: %g vs %g", other, otherBase)
	}
}

func TestApplySwapUpdatesEverything(t *testing.T) {
	r := newTestRouter(t)
	r.applySwap(arch.NewEdge(0, 3))
	if r.swaps != 1 || len(r.s.out) != 1 || r.s.out[0].Kind != circuit.KindSwap {
		t.Fatal("swap not recorded")
	}
	if r.layout.Phys(0) != 3 || r.layout.Phys(3) != 0 {
		t.Fatal("layout not updated")
	}
	if r.s.decay[0] != 1+r.opts.DecayDelta || r.s.decay[3] != 1+r.opts.DecayDelta {
		t.Fatal("decay not incremented for swapped logical qubits")
	}
}

func TestDecayResetAfterInterval(t *testing.T) {
	r := newTestRouter(t)
	r.opts.DecayResetInterval = 2
	r.applySwap(arch.NewEdge(0, 3))
	if r.s.decay[0] == 1 {
		t.Fatal("decay should be raised after first swap")
	}
	r.applySwap(arch.NewEdge(0, 3)) // second swap hits the interval
	for q, d := range r.s.decay {
		if d != 1 {
			t.Fatalf("decay[%d] = %g after reset interval", q, d)
		}
	}
}

func TestExecuteResetsDecayOnCNOT(t *testing.T) {
	dev := arch.Line(2)
	c := circuit.New(2)
	c.Append(circuit.CX(0, 1))
	r := newWhiteboxRouter(t, dev, c, mapping.Identity(2))
	r.s.decay[0], r.s.decay[1] = 1.5, 1.5
	r.decaySteps = 3
	r.execute(0)
	if r.s.decay[0] != 1 || r.s.decay[1] != 1 {
		t.Fatal("executing a CNOT must reset decay (paper §V)")
	}
}

func TestTraverseDoesNotMutateInputLayout(t *testing.T) {
	dev := arch.Line(4)
	c := circuit.New(4)
	c.Append(circuit.CX(0, 3))
	p, err := Prepare(c, dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	init := mapping.Identity(4)
	before := init.Clone()
	tr, err := p.Traverse(context.Background(), init, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Added == 0 {
		t.Fatal("CX(0,3) on a 4-qubit line routed without a SWAP")
	}
	if !init.Equal(before) {
		t.Fatal("Traverse mutated the caller's layout")
	}
}

func TestForceRouteExecutesFrontGate(t *testing.T) {
	dev := arch.Line(5)
	c := circuit.New(5)
	c.Append(circuit.CX(0, 4))
	r := newWhiteboxRouter(t, dev, c, mapping.Identity(5))
	r.s.front = append(r.s.front, 0)
	r.forceRoute()
	// dist(0,4)=4 on a line → 3 swaps bring them adjacent.
	if r.swaps != 3 {
		t.Fatalf("force route used %d swaps, want 3", r.swaps)
	}
	if !r.executable(0) {
		t.Fatal("gate still not executable after force route")
	}
}

// TestScratchReuseAcrossPasses routes two different circuits through
// one Scratch and checks the results match fresh-scratch routing —
// stale buffer contents must never leak between passes.
func TestScratchReuseAcrossPasses(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	rng1 := rand.New(rand.NewSource(9))
	rng2 := rand.New(rand.NewSource(9))
	shared := NewScratch()
	for _, gates := range []int{60, 25, 90} {
		c := circuit.New(20)
		mix := rand.New(rand.NewSource(int64(gates)))
		for i := 0; i < gates; i++ {
			a := mix.Intn(20)
			b := mix.Intn(19)
			if b >= a {
				b++
			}
			c.Append(circuit.CX(a, b))
		}
		p := newPrepared(c, dev, DefaultOptions())
		got := slices.Clone(p.traverse(mapping.Identity(20), rng1, shared, false, emitRecord, nil).s.log)
		want := p.traverse(mapping.Identity(20), rng2, nil, false, emitRecord, nil).s.log
		if !slices.Equal(got, want) {
			t.Fatalf("gates=%d: shared-scratch pass diverged from fresh-scratch pass", gates)
		}
	}
}
