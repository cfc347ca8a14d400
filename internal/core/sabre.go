package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/mapping"
)

// Prepared is a circuit prepared for routing on a device: the
// normalized options, the effective (possibly noise-pruned) device and
// its (possibly noise-weighted) distance matrix, and the circuit
// widened to the device (a view sharing the caller's gates, see
// Circuit.Widen) with its qubit-pair table and its dependency table in
// both directions. Every traversal of a materialized circuit starts
// from one — trial restarts, InitialMapping's candidates, annealing
// steps, CompileWithLayout, RouteStreamMaterialized — and reads it
// only: a Prepared is immutable
// after construction, and each traversal's mutable state lives in its
// Scratch. TrialRunner prepares once and runs RunTrialCtx over many
// seeds, sharing this state across its worker pool. Trial results
// reference it until SelectBest materializes the winner, and the
// winner does not, so a retained Result never pins the tables.
type Prepared struct {
	circ  *circuit.Circuit // widened to the device
	dev   *arch.Device
	opts  Options
	wdist []float64 // flat noise-weighted matrix, nil for hop counts

	// q2 is the flat per-gate qubit-pair table: entries 2*gi and
	// 2*gi+1 are gate gi's logical qubits (-1, -1 for single-qubit
	// gates, which never reach the round loops — drain executes them
	// unconditionally). The round hot paths read pairs from here with
	// two int32 loads instead of copying a circuit.Gate (whose Params
	// slice header alone is wider than both entries).
	q2 []int32

	// fwd and rev are the dependency table in both directions, two
	// entries per gate, -1-padded; gate i depends on gate j when j is
	// the most recent earlier gate sharing a qubit with i (paper
	// Fig. 4). fwd[2i], fwd[2i+1] are i's successors, ascending; one
	// sharing both of i's qubits appears twice. rev[2i], rev[2i+1] are
	// i's predecessors, descending: its successors in the reversed
	// circuit's program order. A reverse traversal (paper Fig. 5) reads
	// rev as successors, so neither the reversed circuit nor its
	// dependencies are ever built; it routes exactly as a forward
	// traversal of Circuit.Reverse does, gate for gate.
	fwd, rev []int32
}

// Prepare validates circ against dev and precomputes the shared
// read-only state every trial needs: the widened circuit view, its
// dependency table (forwards and backwards), and the device's
// (possibly noise-weighted) distance matrices. Nothing the size of
// the circuit is copied. The returned value is safe for concurrent
// RunTrialCtx and Traverse calls, each on its own scratch.
func Prepare(circ *circuit.Circuit, dev *arch.Device, opts Options) (*Prepared, error) {
	dev = effectiveDevice(dev, opts)
	if circ.NumQubits() > dev.NumQubits() {
		return nil, fmt.Errorf("core: circuit needs %d qubits but device %s has %d",
			circ.NumQubits(), dev.Name(), dev.NumQubits())
	}
	return newPrepared(circ, dev, opts), nil
}

// newPrepared builds the Prepared of circ, at most dev's width, on dev
// under opts. One pass over the gates fills the pair table and both
// directions of the dependency table.
func newPrepared(circ *circuit.Circuit, dev *arch.Device, opts Options) *Prepared {
	if circ.NumQubits() < dev.NumQubits() {
		circ = circ.Widen(dev.NumQubits())
	}
	g := circ.NumGates()
	p := &Prepared{
		circ: circ,
		dev:  dev,
		opts: opts.normalized(),
		q2:   make([]int32, 2*g),
		fwd:  make([]int32, 2*g),
		rev:  make([]int32, 2*g),
	}
	for i := range p.fwd {
		p.fwd[i] = -1
	}
	last := make([]int32, circ.NumQubits()) // latest gate on each wire, -1 none
	for i := range last {
		last[i] = -1
	}
	for i, gate := range circ.Gates() {
		p0, p1 := p.link(last, gate.Q0, i), int32(-1)
		if gate.TwoQubit() {
			p.q2[2*i], p.q2[2*i+1] = int32(gate.Q0), int32(gate.Q1)
			p1 = p.link(last, gate.Q1, i)
		} else {
			p.q2[2*i], p.q2[2*i+1] = -1, -1
		}
		p.rev[2*i], p.rev[2*i+1] = max(p0, p1), min(p0, p1)
	}
	if p.opts.Noise != nil {
		// Memoized on the device, and published before trials fan out:
		// concurrent traversals only ever read one shared matrix instead
		// of rerunning Floyd–Warshall.
		p.wdist = dev.WeightedDistancesFor(p.opts.Noise)
	}
	return p
}

// link records gate i on wire q: the wire's latest gate, if any, gains
// i as its next successor. It returns that predecessor, or -1.
func (p *Prepared) link(last []int32, q, i int) int32 {
	j := last[q]
	last[q] = int32(i)
	if j >= 0 {
		if p.fwd[2*j] < 0 {
			p.fwd[2*j] = int32(i)
		} else {
			p.fwd[2*j+1] = int32(i)
		}
	}
	return j
}

// Options returns the normalized options the trials run under.
func (p *Prepared) Options() Options { return p.opts }

// Device returns the effective device trials route on (the input
// device, or its noise-pruned subdevice).
func (p *Prepared) Device() *arch.Device { return p.dev }

// RunTrialCtx executes one random restart: Traversals alternating
// forward/backward passes seeded by Seed+trial (the reverse-traversal
// technique of §IV-C2), returning the final forward pass's result and
// its decomposed depth (the deterministic tie-break key). Every
// traversal's SWAP loop polls ctx at round granularity, so even one
// enormous trial dies within a round of the signal instead of routing
// its whole gate list first. A cancelled trial returns ctx.Err() and a
// nil Result. Safe to call concurrently for distinct trials, each on
// its own scratch (nil allocates a private one).
//
// A trial copies nothing per gate: its non-final traversals emit
// nothing, and its final one is a Traverse whose Keep result holds a
// 4-byte-per-op log instead of a circuit. Result.Circuit stays nil
// until SelectBest picks the trial and builds it; until then the
// Result references p.
func (p *Prepared) RunTrialCtx(ctx context.Context, trial int, s *Scratch) (*Result, int, error) {
	if s == nil {
		s = NewScratch() // shared by this trial's traversals at least
	}
	rng := s.Seeded(p.opts.Seed + int64(trial))
	init := mapping.Random(p.dev.NumQubits(), rng)
	layout := init
	last := p.opts.Traversals - 1 // even: the last traversal runs forwards
	firstAdded := 0
	for t := 0; t < last; t++ {
		r := p.traverse(layout, rng, s, t%2 == 1, emitDiscard, ctx.Done())
		if r == nil {
			return nil, 0, ctx.Err()
		}
		if t == 0 {
			firstAdded = 3 * (r.swaps + r.bridges)
		}
		layout = r.layout
	}
	// layout is now the scratch router's, which the final traversal
	// overwrites; the kept result references its start layout, so the
	// start layout moves into the trial's own storage first.
	layout.CopyInto(&init)
	final, err := p.Traverse(ctx, init, rng, s)
	if err != nil {
		return nil, 0, err
	}
	res := final.Keep()
	if last > 0 {
		res.FirstTraversalAdded = firstAdded
	}
	res.TrialsRun = trial + 1
	return res, final.Depth(), nil
}

// Traversal is one recorded forward traversal (Prepared.Traverse): its
// cost, and its op log and final state, which stay in the scratch it
// ran on. Depth and Keep read them, so they are valid only until the
// scratch's next traversal.
type Traversal struct {
	// Added is the traversal's routing cost: 3 gates per inserted SWAP
	// and per bridge.
	Added int

	p    *Prepared
	init mapping.Layout
	r    *router
}

// Traverse runs one forward traversal of p's circuit from init on s
// (nil allocates a private scratch), drawing its tie-breaks from rng,
// and records its op log (see replay) in s instead of building a
// circuit. init is not mutated, and a kept result references it until
// its circuit is built, so the caller must not change it meanwhile.
// The SWAP loop polls ctx once per round, and a cancelled traversal
// returns ctx.Err().
func (p *Prepared) Traverse(ctx context.Context, init mapping.Layout, rng *rand.Rand, s *Scratch) (Traversal, error) {
	if s == nil {
		s = NewScratch()
	}
	r := p.traverse(init, rng, s, false, emitRecord, ctx.Done())
	if r == nil {
		return Traversal{}, ctx.Err()
	}
	return Traversal{Added: 3 * (r.swaps + r.bridges), p: p, init: init, r: r}, nil
}

// Depth is the depth of the traversal's circuit with each SWAP as its
// 3 CX — DecomposeSwaps().Depth() of the circuit Keep's result builds —
// from one replay of the log: BetterTrial's second key.
func (t Traversal) Depth() int { return t.p.logDepth(t.r.s.log, t.init) }

// Keep copies the op log out of the scratch into a Result whose
// Circuit SelectBest builds if it wins; until then the Result
// references the Prepared. FirstTraversalAdded is the traversal's own
// cost.
func (t Traversal) Keep() *Result {
	r := t.r
	ops := make([]int32, len(r.s.log))
	copy(ops, r.s.log)
	return &Result{
		InitialLayout:       t.init.LogicalToPhysical(),
		FinalLayout:         r.layout.LogicalToPhysical(),
		SwapCount:           r.swaps,
		BridgeCount:         r.bridges,
		AddedGates:          t.Added,
		FirstTraversalAdded: t.Added,
		Stats:               r.stats,
		pending:             &trialLog{prep: t.p, init: t.init, ops: ops},
	}
}

// trialLog is the unbuilt circuit of a kept traversal: its op log, the
// layout it started from, and the Prepared whose gates the log indexes.
type trialLog struct {
	prep *Prepared
	init mapping.Layout
	ops  []int32
}

// build materializes a kept traversal's circuit from its op log, then
// drops the log and with it the reference to the Prepared.
func (res *Result) build() {
	t := res.pending
	if t == nil {
		return
	}
	// The log holds one entry per executed gate and two per SWAP or
	// bridge; a bridge emits 4 gates.
	size := len(t.ops) - res.SwapCount + 2*res.BridgeCount
	res.Circuit = t.prep.materialize(t.ops, t.init, size)
	res.pending = nil
}

// ErrNoTrials is returned by SelectBest when the trial population is
// empty or contains no completed results to select from.
var ErrNoTrials = errors.New("core: no completed trial results to select from")

// BetterTrial reports whether trial a strictly beats trial b under the
// deterministic selection order: fewest added gates, ties broken by
// decomposed depth, remaining ties by lowest trial index (= lowest
// seed, since trial t runs under Seed+t). The index tie-break is
// explicit — not an artifact of iteration order — so selection over
// any subset of a trial population (an adaptive early-exit prefix, a
// cancellation-truncated slice) picks the same winner as selection
// over the full population restricted to that subset.
func BetterTrial(a *Result, aDepth, aTrial int, b *Result, bDepth, bTrial int) bool {
	if a.AddedGates != b.AddedGates {
		return a.AddedGates < b.AddedGates
	}
	if aDepth != bDepth {
		return aDepth < bDepth
	}
	return aTrial < bTrial
}

// SelectBest picks the winning trial deterministically per BetterTrial.
// Nil entries (holes left by cancellation or adaptive early exit) are
// skipped; an empty or all-nil population returns ErrNoTrials instead
// of panicking, so dynamic trial counts degrade to an error the caller
// can handle.
//
// The winner is the only trial whose circuit is built: a kept
// traversal (Traversal.Keep, and so every RunTrialCtx result) gets its
// Circuit from its op log here, and then drops the log and its
// reference to the Prepared, so neither a result cache nor a retained
// job pins the Prepared. The other results are left as they are.
func SelectBest(results []*Result, depths []int) (*Result, error) {
	best := -1
	for trial, res := range results {
		if res == nil {
			continue
		}
		if best < 0 || BetterTrial(res, depths[trial], trial, results[best], depths[best], best) {
			best = trial
		}
	}
	if best < 0 {
		return nil, ErrNoTrials
	}
	win := results[best]
	win.build()
	return win, nil
}

// Compile maps circ onto dev with SABRE: for each of Options.Trials
// random initial mappings it performs Options.Traversals alternating
// forward/backward traversals (the reverse-traversal technique of
// §IV-C2), letting each traversal's final mapping seed the next as an
// ever-better initial mapping; the last forward traversal produces the
// output circuit. The best trial by added gates (ties: output depth)
// wins. The trials run in order on one worker (TrialRunner); a caller
// that needs cancellation or more workers calls TrialRunner.Route.
//
// The returned circuit acts on the device's physical qubits and
// contains symbolic SWAPs; Result documents the accounting.
func Compile(circ *circuit.Circuit, dev *arch.Device, opts Options) (*Result, error) {
	return TrialRunner{Workers: 1}.Route(context.Background(), circ, dev, opts)
}

// CompileWithLayout routes circ starting from a caller-chosen initial
// layout, skipping the random restarts and reverse traversals: one
// forward traversal under the generator of Options.Seed. Useful when a
// good initial mapping is already known (e.g. produced by a previous
// Compile on a related circuit). The SWAP loop polls ctx once per
// round; a cancelled call returns ctx.Err().
func CompileWithLayout(ctx context.Context, circ *circuit.Circuit, dev *arch.Device, init mapping.Layout, opts Options) (*Result, error) {
	//sabre:nondeterm-ok wall-clock elapsed metric; never feeds routing decisions
	start := time.Now()
	p, err := Prepare(circ, dev, opts)
	if err != nil {
		return nil, err
	}
	if init.Size() != p.dev.NumQubits() {
		return nil, fmt.Errorf("core: layout size %d does not match device size %d", init.Size(), p.dev.NumQubits())
	}
	s := NewScratch()
	t, err := p.Traverse(ctx, init, s.Seeded(p.opts.Seed), s)
	if err != nil {
		return nil, err
	}
	res := t.Keep()
	res.build()
	res.TrialsRun = 1
	res.Elapsed = time.Since(start)
	return res, nil
}

// effectiveDevice applies noise-driven edge pruning when configured:
// routing then happens on the subdevice without near-dead couplers, so
// the output never touches them (it stays compliant with the full
// device, whose edge set is a superset).
func effectiveDevice(dev *arch.Device, opts Options) *arch.Device {
	if opts.Noise == nil || opts.MaxEdgeError <= 0 {
		return dev
	}
	return arch.PruneUnreliableEdges(dev, opts.Noise, opts.MaxEdgeError)
}

// InitialMapping runs the forward-backward prefix of SABRE and returns
// the improved initial layout without producing a routed circuit. This
// exposes the reverse-traversal technique as a standalone layout pass
// (the role SabreLayout plays in production compilers). Each of
// Options.Trials candidates is scored by one evaluation pass and
// ranked as BetterTrial ranks trials: by added gates (a bridge costs
// what a SWAP does), the lowest trial winning ties. Cancellation is
// honored between candidates and inside each traversal at round
// granularity; a cancelled call returns ctx.Err().
func InitialMapping(ctx context.Context, circ *circuit.Circuit, dev *arch.Device, opts Options) (mapping.Layout, error) {
	p, err := Prepare(circ, dev, opts)
	if err != nil {
		return mapping.Layout{}, err
	}
	best, err := TrialRunner{Trials: p.opts.Trials, Workers: 1}.Run(ctx, p.layoutTrial)
	if err != nil {
		return mapping.Layout{}, err
	}
	return mapping.FromLogicalToPhysical(best.InitialLayout)
}

// layoutTrial is one InitialMapping candidate: forward then backward
// from a random layout, the backward pass's final mapping being the
// improved initial mapping for the original circuit, then one forward
// evaluation pass from it. It reports depth 0, so candidates rank by
// added gates, then trial.
func (p *Prepared) layoutTrial(ctx context.Context, trial int, s *Scratch) (*Result, int, error) {
	rng := s.Seeded(p.opts.Seed + int64(trial))
	layout := mapping.Random(p.dev.NumQubits(), rng)
	var improved []int
	var probe *router
	if f := p.traverse(layout, rng, s, false, emitDiscard, ctx.Done()); f != nil {
		if b := p.traverse(f.layout, rng, s, true, emitDiscard, ctx.Done()); b != nil {
			// Read before the probe traversal reuses the scratch's router.
			improved = b.layout.LogicalToPhysical()
			probe = p.traverse(b.layout, rng, s, false, emitDiscard, ctx.Done())
		}
	}
	if probe == nil {
		return nil, 0, ctx.Err()
	}
	return &Result{InitialLayout: improved, AddedGates: 3 * (probe.swaps + probe.bridges)}, 0, nil
}
