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

// Prepared holds the trial-invariant inputs of a multi-trial compile:
// the normalized options, the effective (possibly noise-pruned)
// device, and the circuit widened to the device (a view sharing the
// caller's gates, see Circuit.Widen) with its qubit-pair table and
// its dependency table in both directions. TrialRunner prepares once
// and runs RunTrialCtx over many seeds, sharing this state — the
// tables and the device's cached distance matrices — read-only across
// its worker pool. Trial results reference it until SelectBest
// materializes the winner, and the winner does not, so a retained
// Result never pins the tables.
type Prepared struct {
	dev  *arch.Device
	opts Options

	// fwd routes the widened circuit forwards; rev is the same runner
	// reading the dependency table backwards, the reverse traversal of
	// §IV-C2 without a reversed copy of the circuit.
	fwd *PassRunner
	rev *PassRunner
}

// Prepare validates circ against dev and precomputes the shared
// read-only state every trial needs: the widened circuit view, its
// dependency table (forwards and backwards), and the device's
// (possibly noise-weighted) distance matrices. Nothing the size of
// the circuit is copied. The returned value is safe for concurrent
// RunTrial calls.
func Prepare(circ *circuit.Circuit, dev *arch.Device, opts Options) (*Prepared, error) {
	opts = opts.normalized()
	dev = effectiveDevice(dev, opts)
	if circ.NumQubits() > dev.NumQubits() {
		return nil, fmt.Errorf("core: circuit needs %d qubits but device %s has %d",
			circ.NumQubits(), dev.Name(), dev.NumQubits())
	}
	wide := circ
	if circ.NumQubits() < dev.NumQubits() {
		wide = circ.Widen(dev.NumQubits())
	}
	if opts.Noise != nil {
		// Publish the weighted distance matrix before trials fan out so
		// concurrent traversals only ever read the memo.
		dev.WeightedDistancesFor(opts.Noise)
	}
	fwd := NewPassRunner(wide, dev, opts)
	return &Prepared{dev: dev, opts: opts, fwd: fwd, rev: fwd.reversed()}, nil
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
// nothing, and its final one records a 4-byte-per-op log (see replay)
// that the Result keeps instead of a circuit. The returned depth, the
// tie-break key, is DecomposeSwaps().Depth() of the recorded circuit,
// replayed from the log. Result.Circuit stays nil until SelectBest
// picks the trial and builds it; until then the Result references p.
func (p *Prepared) RunTrialCtx(ctx context.Context, trial int, s *Scratch) (*Result, int, error) {
	if s == nil {
		s = NewScratch() // shared by this trial's traversals at least
	}
	rng := s.Seeded(p.opts.Seed + int64(trial))
	layout := mapping.Random(p.dev.NumQubits(), rng)

	var r *router
	firstAdded := 0
	last := p.opts.Traversals - 1
	for t := 0; t <= last; t++ {
		runner, emit := p.fwd, emitDiscard
		if t%2 == 1 {
			runner = p.rev
		}
		if t == last {
			emit = emitRecord
		}
		if t > 0 {
			layout = r.layout
		}
		if r = runner.traverse(layout, rng, s, emit, ctx.Done()); r == nil {
			return nil, 0, ctx.Err()
		}
		if t == 0 {
			firstAdded = 3 * (r.swaps + r.bridges)
		}
	}
	ops := make([]int32, len(s.log))
	copy(ops, s.log)
	res := &Result{
		InitialLayout:       layout.LogicalToPhysical(),
		FinalLayout:         r.layout.LogicalToPhysical(),
		SwapCount:           r.swaps,
		BridgeCount:         r.bridges,
		AddedGates:          3 * (r.swaps + r.bridges),
		FirstTraversalAdded: firstAdded,
		TrialsRun:           trial + 1,
		Stats:               r.stats,
		pending:             &trialLog{prep: p, init: layout, ops: ops},
	}
	return res, p.fwd.logDepth(ops, layout), nil
}

// trialLog is the unbuilt circuit of a RunTrialCtx result: the op log
// of the trial's final traversal, the layout that traversal started
// from, and the Prepared whose gates the log indexes.
type trialLog struct {
	prep *Prepared
	init mapping.Layout
	ops  []int32
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
// The winner is the only trial whose circuit is built: a RunTrialCtx
// result gets its Circuit from its op log here, and then drops the log
// and its reference to the Prepared, so neither a result cache nor a
// retained job pins the Prepared. The other results are left as they
// are.
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
	if t := win.pending; t != nil {
		// The log holds one entry per executed gate and two per SWAP or
		// bridge; a bridge emits 4 gates.
		size := len(t.ops) - win.SwapCount + 2*win.BridgeCount
		win.Circuit = t.prep.fwd.materialize(t.ops, t.init, size)
		win.pending = nil
	}
	return win, nil
}

// Compile maps circ onto dev with SABRE: for each of Options.Trials
// random initial mappings it performs Options.Traversals alternating
// forward/backward traversals (the reverse-traversal technique of
// §IV-C2), letting each traversal's final mapping seed the next as an
// ever-better initial mapping; the last forward traversal produces the
// output circuit. The best trial by added gates (ties: output depth)
// wins. The trials run in order on one worker (TrialRunner).
//
// The returned circuit acts on the device's physical qubits and
// contains symbolic SWAPs; Result documents the accounting.
func Compile(circ *circuit.Circuit, dev *arch.Device, opts Options) (*Result, error) {
	return CompileContext(context.Background(), circ, dev, opts)
}

// CompileContext is Compile with cancellation, honored between trials
// and — via RunTrialCtx — inside each trial's SWAP loop at round
// granularity, so a cancelled caller (a dropped HTTP request, say)
// stops burning CPU within one round even mid-way through a huge
// single trial. Returns ctx.Err() when cancelled before a winner
// exists.
func CompileContext(ctx context.Context, circ *circuit.Circuit, dev *arch.Device, opts Options) (*Result, error) {
	return TrialRunner{Workers: 1}.Route(ctx, circ, dev, opts)
}

// CompileWithLayout routes circ starting from a caller-chosen initial
// layout, skipping the random restarts and reverse traversals. Useful
// when a good initial mapping is already known (e.g. produced by a
// previous Compile on a related circuit).
func CompileWithLayout(circ *circuit.Circuit, dev *arch.Device, init mapping.Layout, opts Options) (*Result, error) {
	//sabre:nondeterm-ok wall-clock elapsed metric; never feeds routing decisions
	start := time.Now()
	opts = opts.normalized()
	dev = effectiveDevice(dev, opts)
	if circ.NumQubits() > dev.NumQubits() {
		return nil, fmt.Errorf("core: circuit needs %d qubits but device %s has %d",
			circ.NumQubits(), dev.Name(), dev.NumQubits())
	}
	if init.Size() != dev.NumQubits() {
		return nil, fmt.Errorf("core: layout size %d does not match device size %d", init.Size(), dev.NumQubits())
	}
	wide := circ
	if circ.NumQubits() < dev.NumQubits() {
		wide = circ.Widen(dev.NumQubits())
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	pass := RoutePass(wide, dev, init, opts, rng)
	return &Result{
		Circuit:             pass.Circuit,
		InitialLayout:       pass.InitialLayout.LogicalToPhysical(),
		FinalLayout:         pass.FinalLayout.LogicalToPhysical(),
		SwapCount:           pass.SwapCount,
		BridgeCount:         pass.BridgeCount,
		AddedGates:          3 * (pass.SwapCount + pass.BridgeCount),
		FirstTraversalAdded: 3 * (pass.SwapCount + pass.BridgeCount),
		TrialsRun:           1,
		Stats:               pass.Stats,
		Elapsed:             time.Since(start),
	}, nil
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
// what a SWAP does), the lowest trial winning ties.
func InitialMapping(circ *circuit.Circuit, dev *arch.Device, opts Options) (mapping.Layout, error) {
	p, err := Prepare(circ, dev, opts)
	if err != nil {
		return mapping.Layout{}, err
	}
	best, err := TrialRunner{Trials: p.opts.Trials, Workers: 1}.Run(context.Background(), p.layoutTrial)
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
func (p *Prepared) layoutTrial(_ context.Context, trial int, s *Scratch) (*Result, int, error) {
	rng := s.Seeded(p.opts.Seed + int64(trial))
	layout := mapping.Random(p.dev.NumQubits(), rng)
	f := p.fwd.traverse(layout, rng, s, emitDiscard, nil)
	b := p.rev.traverse(f.layout, rng, s, emitDiscard, nil)
	probe := p.fwd.traverse(b.layout, rng, s, emitDiscard, nil)
	return &Result{InitialLayout: b.layout.LogicalToPhysical(), AddedGates: 3 * (probe.swaps + probe.bridges)}, 0, nil
}
