package core

import (
	"math/bits"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/mapping"
)

// PassStats instruments one traversal; it quantifies the §IV-C1
// complexity claim (the SWAP candidate list is O(N), not O(exp(N))).
type PassStats struct {
	// SwapRounds counts SWAP-selection rounds (Algorithm 1's else
	// branch); TotalCandidates across them gives the average candidate
	// list size the heuristic scored per round.
	SwapRounds      int
	TotalCandidates int
	MaxCandidates   int
	MaxFront        int
	ForcedRoutes    int

	// ExtendedRebuilds counts how often the extended set was actually
	// recomputed. The set only depends on the front layer, so across
	// consecutive non-executing SWAP rounds (and between a bridge probe
	// and the SWAP selection of the same round) it is served from
	// cache; this stays well below the number of rounds that consult
	// it.
	ExtendedRebuilds int
}

// AvgCandidates returns the mean SWAP-candidate count per round.
func (s PassStats) AvgCandidates() float64 {
	if s.SwapRounds == 0 {
		return 0
	}
	return float64(s.TotalCandidates) / float64(s.SwapRounds)
}

// traverse runs one traversal of p's circuit from init — backwards, the
// reverse traversal of §IV-C2, when reverse is set — under the output
// policy emit, and returns the finished router: s's, holding the final
// layout, counts and stats until s's next traversal, with whatever
// emit left in s. It returns nil when cancelled.
func (p *Prepared) traverse(init mapping.Layout, rng *rand.Rand, s *Scratch, reverse bool, emit emitMode, cancelled <-chan struct{}) *router {
	r := p.newRouter(init, rng, s, reverse, cancelled)
	r.emit = emit
	if !r.run() {
		return nil
	}
	return r
}

// newRouter starts one traversal of p's circuit from init with every
// gate admitted up front: the ready list is seeded with the sources in
// program order (the reversed circuit's order for a reverse
// traversal). A nil s allocates a private scratch.
func (p *Prepared) newRouter(init mapping.Layout, rng *rand.Rand, s *Scratch, reverse bool, cancelled <-chan struct{}) *router {
	if s == nil {
		s = NewScratch()
	}
	r := newRouter(p.dev, p.opts, p.wdist, init, rng, s, p.circ.NumGates(), cancelled)
	p.attach(r, reverse)
	r.bound = int32(len(r.inDeg))
	if reverse {
		for h := len(r.inDeg) - 1; h >= 0; h-- {
			if r.inDeg[h] == 0 {
				s.ready = append(s.ready, h)
			}
		}
		return r
	}
	for i, deg := range r.inDeg {
		if deg == 0 {
			s.ready = append(s.ready, i)
		}
	}
	return r
}

// attach points r at p's circuit: its gate and qubit-pair tables, the
// dependency table read forwards, or backwards when reverse is set, and
// a working indegree per gate (the count of its predecessors in that
// direction), with nothing admitted yet (the streaming driver of
// RouteStreamMaterialized admits in program order from here).
func (p *Prepared) attach(r *router, reverse bool) {
	r.gates, r.q2 = p.circ.Gates(), p.q2
	succ, pred := p.fwd, p.rev
	if reverse {
		succ, pred = p.rev, p.fwd
	}
	g := len(p.q2) / 2
	if cap(r.s.inDeg) < g {
		r.s.inDeg = make([]int32, g)
	}
	inDeg := r.s.inDeg[:g]
	for h := range inDeg {
		deg := int32(0)
		if pred[2*h] >= 0 {
			deg++
		}
		if pred[2*h+1] >= 0 {
			deg++
		}
		inDeg[h] = deg
	}
	r.s.inDeg = inDeg
	r.succ, r.inDeg, r.reverse = succ, inDeg, reverse
}

// newRouter resets s and its router, in place, for a traversal on dev
// from a copy of init whose dependency store starts with handles
// handles, and wires up the device-side state every traversal shares:
// the flat read-only tables the round hot loops gather from (distance
// matrices, dense edge endpoints, incident-edge bitsets) and the stall
// bound. It returns s's router; the caller attaches the store's gate,
// pair and dependency tables.
func newRouter(dev *arch.Device, opts Options, wdist []float64, init mapping.Layout, rng *rand.Rand, s *Scratch, handles int, cancelled <-chan struct{}) *router {
	n := dev.NumQubits()
	s.reset(n, handles, len(dev.Edges()))
	maxStall := opts.MaxStall
	if maxStall <= 0 {
		maxStall = 4*dev.Diameter() + 16
	}
	layout := s.rt.layout
	init.CopyInto(&layout)
	s.rt = router{
		dev:      dev,
		n:        n,
		opts:     opts,
		rng:      rng,
		layout:   layout,
		s:        s,
		dist:     dev.Distances(),
		wdist:    wdist,
		ends:     dev.EdgeEndpoints(),
		inc:      dev.IncidentEdgeWords(),
		incW:     dev.EdgeWords(),
		extGen:   -1,
		idxGen:   -1,
		maxStall: maxStall,

		cancelled: cancelled,
	}
	return &s.rt
}

// dagDeps admits a materialized circuit's gates one by one in program
// order, for RouteStreamMaterialized under the streaming refill policy.
// A gate's working indegree then counts only its predecessors not yet
// executed (-1 marks an executed gate), and the router's admission
// bound clips release and the extended-set BFS to the admitted prefix,
// so readiness transitions match the window's decision for decision
// while the bookkeeping shares nothing with it.
type dagDeps struct {
	r    *router
	pred []int32 // Prepared.rev: each gate's predecessors
}

// admit enters the next gate in program order.
//
//sabre:hotpath
func (d *dagDeps) admit(circuit.Gate) (int, bool) {
	r := d.r
	h := int(r.bound)
	r.bound++
	deg := int32(0)
	for _, p := range d.pred[2*h : 2*h+2] {
		if p >= 0 && r.inDeg[p] >= 0 {
			deg++
		}
	}
	r.inDeg[h] = deg
	return h, deg == 0
}

func (d *dagDeps) seq(h int) int64 { return int64(h) }

// emitMode is a traversal's output policy, set by the calling path.
// The loop's decisions never read it, so every policy routes
// identically.
type emitMode uint8

const (
	// emitGates appends every routed gate, remapped to physical qubits,
	// to Scratch.out: the streaming chunks.
	emitGates emitMode = iota
	// emitRecord appends the op log (see replay) to Scratch.log:
	// Prepared.Traverse, whose circuit is built only if it is kept and
	// wins.
	emitRecord
	// emitDiscard emits nothing: a trial's non-final traversals and
	// InitialMapping need only the final layout and the counts.
	emitDiscard
)

// Op log of a record-mode traversal: an executed gate is its handle
// h ≥ 0; a SWAP on physical qubits (a, b) is the pair ^(2a), b; gate h
// bridged through the middle qubit m is the pair ^(2m+1), h. That is
// 4 B per op where the routed circuit costs 48 B per gate.
//
// opSwap and opCX are the pseudo-handles replay hands its visitor for
// an inserted SWAP and for each CX of a bridge.
const (
	opSwap int32 = -1
	opCX   int32 = -2
)

// replay walks an op log recorded from the layout init, tracking the
// layout through its SWAPs, and hands visit every gate the traversal
// emitted, in order: gate h on physical qubits (a, b), b = -1 for a
// one-qubit gate, or opSwap or opCX on (a, b).
func (p *Prepared) replay(log []int32, init mapping.Layout, visit func(h int32, a, b int)) {
	l := init.Clone()
	gates := p.circ.Gates()
	for i := 0; i < len(log); i++ {
		h := log[i]
		if h >= 0 {
			g := &gates[h]
			if g.TwoQubit() {
				visit(h, l.Phys(g.Q0), l.Phys(g.Q1))
			} else {
				visit(h, l.Phys(g.Q0), -1)
			}
			continue
		}
		i++
		q, arg := int(^h>>1), int(log[i])
		if ^h&1 == 0 {
			visit(opSwap, q, arg)
			l.SwapPhysical(q, arg)
			continue
		}
		g := &gates[arg]
		pa, pb := l.Phys(g.Q0), l.Phys(g.Q1)
		visit(opCX, pa, q)
		visit(opCX, q, pb)
		visit(opCX, pa, q)
		visit(opCX, q, pb)
	}
}

// logDepth is the depth of the circuit an op log records with each SWAP
// as its 3 CX, i.e. DecomposeSwaps().Depth() of the materialized
// circuit, from one replay over a device-sized level array.
func (p *Prepared) logDepth(log []int32, init mapping.Layout) int {
	level := make([]int, p.dev.NumQubits())
	depth := 0
	p.replay(log, init, func(h int32, a, b int) {
		cost := 1
		if h == opSwap {
			cost = 3
		}
		t := level[a]
		if b >= 0 {
			t = max(t, level[b])
			level[b] = t + cost
		}
		level[a] = t + cost
		depth = max(depth, t+cost)
	})
	return depth
}

// materialize builds the circuit an op log records: gate for gate what
// the same traversal emits under emitGates. size is its gate count.
func (p *Prepared) materialize(log []int32, init mapping.Layout, size int) *circuit.Circuit {
	gates := p.circ.Gates()
	out := make([]circuit.Gate, 0, size)
	p.replay(log, init, func(h int32, a, b int) {
		switch h {
		case opSwap:
			out = append(out, circuit.Swap(a, b))
		case opCX:
			out = append(out, circuit.CX(a, b))
		default:
			g := gates[h]
			g.Q0 = a
			if b >= 0 {
				g.Q1 = b
			}
			out = append(out, g)
		}
	})
	c := circuit.FromTrusted(p.dev.NumQubits(), out)
	c.SetName(p.circ.Name())
	return c
}

// router holds the mutable state of one traversal of Algorithm 1, over
// either dependency store: a materialized circuit's gate indices or
// the streaming window's slots. It lives in the Scratch, as does every
// slice it appends to, so neither starting a traversal nor a
// steady-state SWAP round touches the allocator.
type router struct {
	dev  *arch.Device
	n    int // device qubit count = row stride of the flat matrices
	opts Options
	rng  *rand.Rand

	// succ and inDeg are the store's dependency table, which retire and
	// the extended-set BFS read directly: succ[2h] and succ[2h+1] are
	// h's successors in admission order, -1-padded (one sharing both of
	// h's qubits appears twice), and inDeg[h] is h's working indegree,
	// -1 once executed. Handles at or above bound are not admitted yet.
	// Only RouteStreamMaterialized admits while routing, in gate order
	// over ascending successor lists, so both walks stop at the first
	// unadmitted entry. The window lists only admitted slots (bound
	// MaxInt32).
	succ  []int32
	inDeg []int32
	bound int32

	// reverse marks the reverse traversal, whose program order is
	// descending gate index (see seq); arena is the windowed store's
	// slot arena, whose slots retire recycles (nil for a materialized
	// circuit).
	reverse bool
	arena   *streamScratch

	// gates and q2 are the store's handle-indexed tables: the logical
	// gate, and its qubit pair (entries 2h and 2h+1; -1, -1 for
	// single-qubit gates). The round hot paths read pairs from q2 with
	// two int32 loads instead of copying a circuit.Gate (whose Params
	// slice header alone is wider than both entries).
	gates []circuit.Gate
	q2    []int32

	// stream is the streaming driver that admits gates between drains
	// and flushes output chunks; nil when the whole circuit was
	// admitted up front.
	stream *streamRouter

	// emit is the output policy (emitGates, the zero value, unless the
	// calling path chose otherwise).
	emit emitMode

	layout mapping.Layout
	done   int // executed gate count, bridged gates included
	done2q int // of which two-qubit

	s *Scratch

	swaps   int
	bridges int
	stats   PassStats

	// dist is the device's flat hop-count matrix; wdist the flat
	// noise-weighted matrix (nil when routing by hop count, see
	// Options.Noise). Indexed a*n+b.
	dist  []int
	wdist []float64

	// Flat read-only device tables for the round hot loops: ends is the
	// dense edge-id→endpoints table; inc the per-qubit incident-edge
	// bitsets with row stride incW.
	ends []int32
	inc  []uint64
	incW int

	decaySteps int // SWAP selections since last decay reset
	stall      int // consecutive SWAPs without executing a gate
	maxStall   int // stall bound before a forced route

	// moved records a SWAP since drain last scanned the front layer.
	// Whether a gate can execute depends only on the layout, so the
	// front needs a rescan only after the layout changed.
	moved bool

	// cancelled is the cancellation signal of the owning context (nil
	// when the traversal is uncancellable); step polls it once per SWAP
	// round and latches aborted.
	cancelled <-chan struct{}
	aborted   bool

	// frontGen increments whenever the front layer's contents change;
	// extGen records the generation the extended set was computed at.
	// The extended set is a pure function of the front layer (a DAG
	// walk), so while the front is unchanged — consecutive
	// non-executing SWAP rounds, or a bridge probe followed by SWAP
	// selection in the same round — the cached set is served as-is.
	// idxGen plays the same role for the layout-independent half of
	// the bitset round index (extOff and the fpart occupancy pattern,
	// see buildRoundIndexBitset).
	frontGen int
	extGen   int
	idxGen   int

	// Per-round base sums of the scoring round's front/extended
	// distances under the current layout (integer hops or weighted),
	// computed once per round by buildRoundIndexBitset; candidate
	// scores are base + delta over the few gates touching the swapped
	// qubits.
	frontSumI int64
	extSumI   int64
	frontSumF float64
	extSumF   float64

	// Per-round reciprocals of Eq. 2's size normalizations, set by
	// setRoundScale: invF = 1/|F| and invE = W/|E| (0 when the extended
	// set is empty). Both engines multiply by these instead of dividing
	// per candidate, so the rounding is engine-independent.
	invF float64
	invE float64
}

// setRoundScale recomputes the per-round Eq. 2 reciprocals from the
// current front/extended sets. Called once per scoring round.
//
//sabre:hotpath
func (r *router) setRoundScale() {
	r.invF = 1 / float64(len(r.s.front))
	if len(r.s.extended) > 0 {
		r.invE = r.opts.ExtendedSetWeight / float64(len(r.s.extended))
	} else {
		r.invE = 0
	}
}

// hop returns the hop-count distance between physical qubits a and b.
//
//sabre:hotpath
func (r *router) hop(a, b int) int { return r.dist[a*r.n+b] }

// distAt returns the routing distance between physical qubits a and b:
// coupling-graph hops by default, or the noise-weighted most-reliable-
// path cost when a NoiseModel is configured.
//
//sabre:hotpath
func (r *router) distAt(a, b int) float64 {
	if r.wdist != nil {
		return r.wdist[a*r.n+b]
	}
	return float64(r.dist[a*r.n+b])
}

// run is the main loop of Algorithm 1. It reports false when the
// traversal was cut short by cancellation — checked once per round, so
// an abandoned trial stops within one SWAP selection of the signal.
func (r *router) run() bool {
	for r.step() {
	}
	return !r.aborted
}

// step runs one iteration of Algorithm 1's loop: drain the executable
// front layer, then resolve one blocked round by a forced route (the
// stall safeguard), a bridge, or the best-scoring SWAP. A streaming
// traversal admits gates after the drain and flushes full output
// chunks. It reports false when the traversal is over: every gate
// executed, the stream ended or failed, or the context was cancelled
// (aborted).
//
//sabre:hotpath
func (r *router) step() bool {
	r.drain()
	if r.stream != nil && !r.stream.fill() {
		return false
	}
	if len(r.s.front) == 0 {
		return false
	}
	select {
	case <-r.cancelled:
		r.aborted = true
		return false
	default:
	}
	if r.stall >= r.maxStall {
		// No flush: a forced route's SWAPs leave with the chunk cut
		// after the next drain. Chunk boundaries are part of the pinned
		// streaming output (StreamStats.Chunks).
		r.forceRoute()
		return true
	}
	if !r.opts.UseBridge || !r.tryBridge() {
		r.applySwap(r.scoreRound())
	}
	if r.stream != nil {
		r.stream.maybeFlush()
	}
	return true
}

// tryBridge looks for a front-layer CNOT whose qubits sit at distance
// exactly 2 and whose logical pair does not recur in the extended set,
// and executes it through a 4-CNOT bridge instead of moving qubits:
//
//	CX(c,m) CX(m,t) CX(c,m) CX(m,t)  ==  CX(c,t)   (m restored)
//
// A bridge costs the same 3 extra gates as one SWAP but leaves the
// mapping unchanged, which wins exactly when the pair will not
// interact again soon (§VI's circuit-transformation direction; the
// transformation the paper cites from Siraichi et al.).
//
//sabre:hotpath
func (r *router) tryBridge() bool {
	r.ensureExtended()
	s := r.s
	for fi, h := range s.front {
		g := r.gates[h]
		if g.Kind != circuit.KindCX {
			continue
		}
		pa, pb := r.layout.Phys(g.Q0), r.layout.Phys(g.Q1)
		if r.hop(pa, pb) != 2 {
			continue
		}
		if r.pairRecurs(g.Q0, g.Q1) {
			continue
		}
		// Middle qubit on a shortest path: the first neighbour of pa
		// adjacent to pb in sorted order — the same qubit the greedy
		// shortest-path walk picks.
		m := -1
		for _, nb := range r.dev.Neighbors(pa) {
			if r.hop(nb, pb) == 1 {
				m = nb
				break
			}
		}
		switch r.emit {
		case emitGates:
			s.out = append(s.out,
				circuit.CX(pa, m), circuit.CX(m, pb),
				circuit.CX(pa, m), circuit.CX(m, pb),
			)
		case emitRecord:
			s.log = append(s.log, ^int32(2*m+1), int32(h))
		}
		r.bridges++
		r.stall = 0
		r.resetDecay()
		// Retire the gate without the usual execute() remap (the bridge
		// already realized it on physical wires).
		s.front = append(s.front[:fi], s.front[fi+1:]...)
		r.frontGen++
		r.done2q++
		r.retire(h)
		return true
	}
	return false
}

// pairRecurs reports whether the unordered logical pair {a, b} appears
// among the extended-set gates. The extended set holds at most
// ExtendedSetSize gates, so a linear scan beats building a set per
// round (and allocates nothing).
//
//sabre:hotpath
func (r *router) pairRecurs(a, b int) bool {
	if a > b {
		a, b = b, a
	}
	for _, h := range r.s.extended {
		ga, gb := int(r.q2[2*h]), int(r.q2[2*h+1])
		if ga > gb {
			ga, gb = gb, ga
		}
		if ga == a && gb == b {
			return true
		}
	}
	return false
}

// drain executes every gate whose dependencies are met and whose
// physical qubits (for two-qubit gates) are coupled, until no further
// progress. It maintains the front layer F and bumps frontGen whenever
// F's contents change (which invalidates the extended-set cache).
// Executing a gate never makes a parked one executable, so the front
// is scanned once, and only after a SWAP moved qubits, between two
// passes over the ready list: the second pass takes the gates the
// scan released.
//
//sabre:hotpath
func (r *router) drain() {
	s := r.s
	changed := false
	for scan := r.moved; ; scan = false {
		// Newly-ready gates, last in first out: execute (releasing
		// successors onto the list) or park in the front layer.
		for len(s.ready) > 0 {
			h := s.ready[len(s.ready)-1]
			s.ready = s.ready[:len(s.ready)-1]
			if r.executable(h) {
				r.execute(h)
			} else {
				s.front = append(s.front, h)
				changed = true
			}
		}
		if !scan {
			break
		}
		// Front-layer gates the SWAP unlocked.
		r.moved = false
		keep := s.front[:0]
		for _, h := range s.front {
			if r.executable(h) {
				r.execute(h)
				changed = true
			} else {
				keep = append(keep, h)
			}
		}
		s.front = keep
	}
	if changed {
		r.frontGen++
	}
}

// executable reports whether gate h can run right now under the current
// layout: single-qubit gates always can; two-qubit gates need their
// physical qubits coupled.
//
//sabre:hotpath
func (r *router) executable(h int) bool {
	q0 := r.q2[2*h]
	if q0 < 0 {
		return true
	}
	return r.dev.Connected(r.layout.Phys(int(q0)), r.layout.Phys(int(r.q2[2*h+1])))
}

// execute emits gate h, remapped to physical qubits (Remap inlined: a
// method value would escape) or as its log entry, and retires it.
//
//sabre:hotpath
func (r *router) execute(h int) {
	twoQubit := r.q2[2*h] >= 0
	if twoQubit {
		// Paper §V: decay resets whenever a CNOT is executed.
		r.resetDecay()
		r.stall = 0
		r.done2q++
	}
	switch r.emit {
	case emitGates:
		g := r.gates[h]
		g.Q0 = r.layout.Phys(g.Q0)
		if twoQubit {
			g.Q1 = r.layout.Phys(g.Q1)
		}
		r.s.out = append(r.s.out, g)
	case emitRecord:
		r.s.log = append(r.s.log, int32(h))
	}
	r.retire(h)
}

// retire counts h as executed and releases its admitted successors
// whose last dependency it was into the ready list, in admission
// order; the window recycles h's slot.
//
//sabre:hotpath
func (r *router) retire(h int) {
	r.done++
	r.inDeg[h] = -1
	for _, succ := range r.succ[2*h : 2*h+2] {
		// One unsigned compare rejects both the -1 padding and an
		// unadmitted successor.
		if uint32(succ) >= uint32(r.bound) {
			break
		}
		r.inDeg[succ]--
		if r.inDeg[succ] == 0 {
			r.s.ready = append(r.s.ready, int(succ))
		}
	}
	if r.arena != nil {
		r.arena.recycle(h)
	}
}

// seq returns h's admission sequence number: its position in program
// order (the reversed circuit's for a reverse traversal).
func (r *router) seq(h int) int64 {
	switch {
	case r.stream != nil:
		return r.stream.deps.seq(h)
	case r.reverse:
		return int64(len(r.inDeg) - 1 - h)
	}
	return int64(h)
}

// scoreRound runs one SWAP-selection round up to (but excluding) the
// mutation: collect candidates, refresh the extended set, score every
// candidate with the configured engine, and return the best-scoring
// candidate edge with ties broken by reservoir sampling. Both engines
// see the same candidate order (ascending dense edge id) and make the
// same tie-break comparisons, so the RNG stream — and therefore the
// routed output — is engine-independent. Split from step so tests and
// benchmarks can measure a steady-state round in isolation.
//
//sabre:hotpath
func (r *router) scoreRound() arch.Edge {
	r.collectCandidates()
	r.ensureExtended()
	r.setRoundScale()
	s := r.s
	r.stats.SwapRounds++
	r.stats.TotalCandidates += len(s.candIDs)
	if len(s.candIDs) > r.stats.MaxCandidates {
		r.stats.MaxCandidates = len(s.candIDs)
	}
	if len(s.front) > r.stats.MaxFront {
		r.stats.MaxFront = len(s.front)
	}

	if r.opts.Scoring != ScoringExhaustive {
		// The bitset engine fuses winner selection into its scoring
		// pass (same comparisons and RNG draws as selectBest, see
		// scoreBitset), so it skips the score buffer entirely.
		r.buildRoundIndexBitset()
		return r.candidate(r.scoreCandidatesBitset())
	}
	if cap(s.scores) < len(s.candIDs) {
		//sabre:alloc-ok amortized Scratch grow; steady-state rounds reuse the buffer
		s.scores = make([]float64, len(s.candIDs))
	}
	s.scores = s.scores[:len(s.candIDs)]
	for i := range s.candIDs {
		s.scores[i] = r.scoreSwapExhaustive(r.candidate(i))
	}
	return r.selectBest()
}

// selectBest scans the filled score buffer and returns the lowest-
// scoring candidate, reservoir-sampling among ties (within a 1e-12
// band) so the seeded search explores plateaus uniformly — the
// authors' artifact randomizes tie order the same way. This loop is
// the exhaustive reference's only RNG consumer in a round; the bitset
// engine fuses the identical comparison/draw sequence into its
// scoring pass (scoreBitset), so both engines consume the same RNG
// stream and route byte-identically.
//
//sabre:hotpath
func (r *router) selectBest() arch.Edge {
	s := r.s
	best := 0
	bestScore := s.scores[0]
	ties := 1
	for i := 1; i < len(s.scores); i++ {
		sc := s.scores[i]
		switch {
		case sc < bestScore-1e-12:
			best, bestScore, ties = i, sc, 1
		case sc <= bestScore+1e-12:
			ties++
			if r.rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return r.candidate(best)
}

// collectCandidates gathers the SWAP candidate list: every coupling
// edge with at least one endpoint hosting a logical qubit of a front-
// layer gate. SWAPs entirely between low-priority qubits cannot help
// (paper Fig. 6) and are pruned. The list is built branch-free: the
// incident-edge bitset rows of every front qubit are OR-ed into one
// accumulator (duplicates cost nothing — OR is idempotent, which is
// the whole dedup), then drained in ascending dense edge id by
// trailing-zero iteration. Draining zeroes each word after reading
// it, restoring the Scratch's all-zero invariant for the next round.
// Ascending edge id is the canonical candidate order every scoring
// engine and the tie-break RNG stream depend on.
//
//sabre:hotpath
func (r *router) collectCandidates() {
	s := r.s
	w := s.candWords
	stride := r.incW
	for _, g := range s.front {
		pa := r.layout.Phys(int(r.q2[2*g]))
		pb := r.layout.Phys(int(r.q2[2*g+1]))
		ra := r.inc[pa*stride : (pa+1)*stride]
		rb := r.inc[pb*stride : (pb+1)*stride]
		for i := range w {
			w[i] |= ra[i] | rb[i]
		}
	}
	cands := s.candIDs[:0]
	for wi, word := range w {
		if word == 0 {
			continue
		}
		w[wi] = 0
		base := int32(wi * 64)
		for ; word != 0; word &= word - 1 {
			cands = append(cands, base+int32(bits.TrailingZeros64(word)))
		}
	}
	s.candIDs = cands
}

// candidate materializes candidate i as a physical edge through the
// device's dense edge-endpoint table.
//
//sabre:hotpath
func (r *router) candidate(i int) arch.Edge {
	id := r.s.candIDs[i]
	return arch.Edge{A: int(r.ends[2*id]), B: int(r.ends[2*id+1])}
}

// ensureExtended refreshes r.s.extended — up to ExtendedSetSize
// two-qubit gates that follow the front layer in the dependency table
// (BFS order),
// the heuristic's look-ahead window (§IV-D) — unless the cached set is
// still valid. The set is a pure function of the front layer, so it is
// recomputed only when frontGen moved; bridge probe and SWAP scoring
// within one round, and consecutive non-executing rounds, all share
// one computation.
//
//sabre:hotpath
func (r *router) ensureExtended() {
	if r.extGen == r.frontGen {
		return
	}
	r.extGen = r.frontGen
	r.stats.ExtendedRebuilds++
	s := r.s
	s.extended = s.extended[:0]
	if r.opts.Heuristic == HeuristicBasic {
		return
	}
	limit := r.opts.ExtendedSetSize
	// BFS from the front layer through the dependency table.
	// Decremented indegree bookkeeping is not needed for an estimate: we
	// walk successors breadth-first and take the first `limit`
	// two-qubit gates; the gate that hits the limit is not queued.
	// Visited tracking is an epoch stamp per handle; the queue is a
	// reused buffer walked by index (no pop-front copying).
	epoch := s.nextGateEpoch()
	queue := s.bfsQueue[:0]
	queue = append(queue, s.front...)
	for _, h := range queue {
		s.gateMark[h] = epoch
	}
	for head := 0; head < len(queue) && len(s.extended) < limit; head++ {
		h := queue[head]
		for _, succ := range r.succ[2*h : 2*h+2] {
			if uint32(succ) >= uint32(r.bound) {
				break // -1 padding or unadmitted, as in retire
			}
			if s.gateMark[succ] == epoch {
				continue
			}
			s.gateMark[succ] = epoch
			if r.q2[2*succ] >= 0 {
				s.extended = append(s.extended, int(succ))
				if len(s.extended) >= limit {
					break
				}
			}
			queue = append(queue, int(succ))
		}
	}
	s.bfsQueue = queue
}

// applySwap emits a SWAP on the physical edge, updates the layout and
// the decay bookkeeping.
//
//sabre:hotpath
func (r *router) applySwap(e arch.Edge) {
	s := r.s
	switch r.emit {
	case emitGates:
		s.out = append(s.out, circuit.Swap(e.A, e.B))
	case emitRecord:
		s.log = append(s.log, ^int32(2*e.A), int32(e.B))
	}
	qa, qb := r.layout.Log(e.A), r.layout.Log(e.B)
	r.layout.SwapPhysical(e.A, e.B)
	r.moved = true
	r.swaps++
	r.stall++

	s.decay[qa] += r.opts.DecayDelta
	s.decay[qb] += r.opts.DecayDelta
	r.decaySteps++
	if r.decaySteps >= r.opts.DecayResetInterval {
		r.resetDecay()
	}
}

func (r *router) resetDecay() {
	if r.decaySteps == 0 {
		return
	}
	for i := range r.s.decay {
		r.s.decay[i] = 1
	}
	r.decaySteps = 0
}

// forceRoute deterministically routes the oldest front-layer gate by
// swapping its control along a shortest path to its target. It is the
// termination safeguard: bounded by the device diameter, it always
// executes at least one gate. The path is walked greedily downhill in
// the distance matrix (the same walk ShortestPath performs) without
// materializing it.
func (r *router) forceRoute() {
	g := r.s.front[0]
	oldest := r.seq(g)
	for _, h := range r.s.front[1:] {
		if q := r.seq(h); q < oldest {
			g, oldest = h, q
		}
	}
	cur, pb := r.layout.Phys(int(r.q2[2*g])), r.layout.Phys(int(r.q2[2*g+1]))
	// Swap the control forward until adjacent to the target.
	for r.hop(cur, pb) > 1 {
		next := -1
		for _, nb := range r.dev.Neighbors(cur) {
			if r.hop(nb, pb) == r.hop(cur, pb)-1 {
				next = nb
				break
			}
		}
		r.applySwap(arch.NewEdge(cur, next))
		cur = next
	}
	r.stall = 0
	r.stats.ForcedRoutes++
}
