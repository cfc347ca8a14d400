package core

import (
	"context"
	"math/bits"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/mapping"
)

// PassResult is the outcome of one traversal (RoutePass): the routed
// physical circuit, the layouts bracketing it, and the SWAP count.
type PassResult struct {
	Circuit       *circuit.Circuit
	InitialLayout mapping.Layout
	FinalLayout   mapping.Layout
	SwapCount     int
	BridgeCount   int
	Stats         PassStats
}

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

// PassRunner binds one (circuit, device, options) triple to the
// trial-invariant state a traversal needs: the dependency DAG of the
// circuit and the (possibly noise-weighted) flat distance matrix.
// Construct once, then Run many times with different layouts and
// seeds — restart trials, annealing chains and reverse traversals all
// re-route the same circuit, and rebuilding the DAG per traversal was
// pure waste. A PassRunner is immutable after construction and safe
// for concurrent Run calls (each Run's mutable state lives in its
// Scratch).
type PassRunner struct {
	circ  *circuit.Circuit
	dag   *circuit.DAG
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
}

// NewPassRunner prepares circ (already widened to the device size) for
// repeated traversals on dev under opts.
func NewPassRunner(circ *circuit.Circuit, dev *arch.Device, opts Options) *PassRunner {
	opts = opts.normalized()
	pr := &PassRunner{
		circ: circ,
		dag:  circuit.BuildDAG(circ),
		dev:  dev,
		opts: opts,
		q2:   make([]int32, 2*circ.NumGates()),
	}
	for gi := 0; gi < circ.NumGates(); gi++ {
		g := circ.Gate(gi)
		if g.TwoQubit() {
			pr.q2[2*gi] = int32(g.Q0)
			pr.q2[2*gi+1] = int32(g.Q1)
		} else {
			pr.q2[2*gi] = -1
			pr.q2[2*gi+1] = -1
		}
	}
	if opts.Noise != nil {
		// Memoized on the device: every traversal of every trial shares
		// one read-only matrix instead of rerunning Floyd–Warshall.
		pr.wdist = dev.WeightedDistancesFor(opts.Noise)
	}
	return pr
}

// Run performs one traversal of SABRE's SWAP-based heuristic search
// (Algorithm 1) starting from init, using s for every mutable buffer
// (nil allocates a private scratch). The input layout is not mutated.
func (pr *PassRunner) Run(init mapping.Layout, rng *rand.Rand, s *Scratch) PassResult {
	res, _ := pr.RunContext(context.Background(), init, rng, s)
	return res
}

// RunContext is Run with intra-traversal cancellation: the SWAP loop
// checks ctx between rounds, so even a single huge trial dies within
// one round of cancellation instead of routing its whole gate list.
// A cancelled traversal returns ctx.Err() and a zero PassResult — its
// partial output is never observable. The check is a select-default on
// ctx.Done() (no allocation, no lock), so the steady-state SWAP round
// stays zero-alloc.
func (pr *PassRunner) RunContext(ctx context.Context, init mapping.Layout, rng *rand.Rand, s *Scratch) (PassResult, error) {
	r := pr.newRouter(init, rng, s, ctx.Done())
	if !r.run() {
		return PassResult{}, ctx.Err()
	}
	out := circuit.NewNamed(pr.circ.Name(), r.n)
	// Trusted: every emitted gate is a remap of a validated gate
	// through the layout bijection, or a SWAP/CX on device edges.
	out.AppendTrusted(r.s.out...)
	return PassResult{
		Circuit:       out,
		InitialLayout: init.Clone(),
		FinalLayout:   r.layout,
		SwapCount:     r.swaps,
		BridgeCount:   r.bridges,
		Stats:         r.stats,
	}, nil
}

// newRouter starts one traversal of pr's circuit from init with every
// gate admitted up front: the DAG store holds the whole circuit and
// the ready list is seeded with its sources in ascending order. A nil
// s allocates a private scratch.
func (pr *PassRunner) newRouter(init mapping.Layout, rng *rand.Rand, s *Scratch, cancelled <-chan struct{}) *router {
	if s == nil {
		s = NewScratch()
	}
	r := newRouter(pr.dev, pr.opts, pr.wdist, init.Clone(), rng, s, pr.circ.NumGates(), cancelled)
	pr.attach(r)
	r.dag.admitted = len(r.dag.inDeg)
	for i, deg := range r.dag.inDeg {
		if deg == 0 {
			s.ready = append(s.ready, i)
		}
	}
	return r
}

// attach points r at pr's circuit: its gate and qubit-pair tables, and
// a DAG store with nothing admitted yet (the streaming driver of
// RouteStreamMaterialized admits in program order from here).
func (pr *PassRunner) attach(r *router) {
	r.s.inDeg = pr.dag.InDegreesInto(r.s.inDeg)
	r.gates, r.q2 = pr.circ.Gates(), pr.q2
	r.dag = dagDeps{dag: pr.dag, inDeg: r.s.inDeg}
	r.deps = &r.dag
}

// newRouter resets s for a traversal on dev whose dependency store
// starts with handles handles, and wires up the device-side state
// every traversal shares: the layout, the flat read-only tables the
// round hot loops gather from (distance matrices, dense edge
// endpoints, incident-edge bitsets) and the stall bound. The caller
// attaches the dependency store and its gate and pair tables.
func newRouter(dev *arch.Device, opts Options, wdist []float64, layout mapping.Layout, rng *rand.Rand, s *Scratch, handles int, cancelled <-chan struct{}) *router {
	n := dev.NumQubits()
	s.reset(n, handles, len(dev.Edges()))
	maxStall := opts.MaxStall
	if maxStall <= 0 {
		maxStall = 4*dev.Diameter() + 16
	}
	return &router{
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
}

// RoutePass runs one traversal of SABRE's SWAP-based heuristic search
// (Algorithm 1) over circ starting from the given layout. circ must
// already be widened to the device's qubit count. The input layout is
// not mutated. Callers that route the same circuit repeatedly should
// construct a PassRunner once and reuse it (plus a Scratch) instead.
func RoutePass(circ *circuit.Circuit, dev *arch.Device, init mapping.Layout, opts Options, rng *rand.Rand) PassResult {
	return NewPassRunner(circ, dev, opts).Run(init, rng, nil)
}

// deps is the dependency store Algorithm 1's loop runs over. A handle
// indexes the store's gate and qubit-pair tables (router.gates,
// router.q2): a gate index of a materialized circuit (dagDeps) or a
// slot of the streaming window (ringDeps). Both stores order
// successors by admission, so the loop releases and visits gates
// identically over either — which is what lets RouteStreamMaterialized
// stay RouteStream's independent oracle while sharing its loop.
type deps interface {
	// release retires h and appends its newly dependency-free
	// successors to ready, in admission order.
	release(h int, ready []int) []int
	// succs returns h's admitted successors in admission order,
	// -1-padded. A successor sharing both of h's qubits appears twice,
	// as in BuildDAG.
	succs(h int) (s0, s1 int)
	// seq returns h's admission sequence number: its position in
	// program order.
	seq(h int) int64
}

// dagDeps is the dependency store of a materialized circuit: its CSR
// DAG plus a working indegree per gate. A PassRunner traversal admits
// every gate up front. RouteStreamMaterialized admits them one by one
// in program order under the streaming refill policy; a gate's working
// indegree then counts only its predecessors not yet executed (-1
// marks an executed gate), and release is clipped to the admitted
// prefix, so readiness transitions match the window's decision for
// decision while the bookkeeping shares nothing with it.
type dagDeps struct {
	dag      *circuit.DAG
	inDeg    []int // working indegree, -1 once executed
	admitted int   // gates [0, admitted) have entered the store
}

// admit enters the next gate in program order.
//
//sabre:hotpath
func (d *dagDeps) admit(circuit.Gate) (int, bool) {
	h := d.admitted
	d.admitted++
	deg := 0
	for _, p := range d.dag.Predecessors(h) {
		if d.inDeg[p] >= 0 {
			deg++
		}
	}
	d.inDeg[h] = deg
	return h, deg == 0
}

//sabre:hotpath
func (d *dagDeps) release(h int, ready []int) []int {
	d.inDeg[h] = -1
	for _, succ := range d.dag.Successors(h) {
		if succ >= d.admitted {
			break // ascending: the rest are unadmitted too
		}
		d.inDeg[succ]--
		if d.inDeg[succ] == 0 {
			ready = append(ready, succ)
		}
	}
	return ready
}

//sabre:hotpath
func (d *dagDeps) succs(h int) (int, int) {
	ss := d.dag.Successors(h)
	s0, s1 := -1, -1
	if len(ss) > 0 && ss[0] < d.admitted {
		s0 = ss[0]
		if len(ss) > 1 && ss[1] < d.admitted {
			s1 = ss[1]
		}
	}
	return s0, s1
}

func (d *dagDeps) seq(h int) int64 { return int64(h) }

// router holds the mutable state of one traversal of Algorithm 1, over
// either dependency store. Every slice it appends to lives in the
// Scratch so steady-state SWAP rounds never touch the allocator.
type router struct {
	dev  *arch.Device
	n    int // device qubit count = row stride of the flat matrices
	opts Options
	rng  *rand.Rand

	// deps is the dependency store; dag backs it for a materialized
	// circuit (deps == &dag), so a traversal allocates no store.
	deps deps
	dag  dagDeps

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
		s.out = append(s.out,
			circuit.CX(pa, m), circuit.CX(m, pb),
			circuit.CX(pa, m), circuit.CX(m, pb),
		)
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
// physical qubits (for two-qubit gates) are coupled, looping until no
// further progress. It maintains the front layer F and bumps frontGen
// whenever F's contents change (which invalidates the extended-set
// cache).
//
//sabre:hotpath
func (r *router) drain() {
	s := r.s
	changed := false
	for {
		progress := false
		// Newly-ready gates: execute or park in the front layer.
		for len(s.ready) > 0 {
			h := s.ready[len(s.ready)-1]
			s.ready = s.ready[:len(s.ready)-1]
			if r.executable(h) {
				r.execute(h)
				progress = true
			} else {
				s.front = append(s.front, h)
				changed = true
			}
		}
		// Front-layer gates that a SWAP (or an executed gate) unlocked.
		keep := s.front[:0]
		for _, h := range s.front {
			if r.executable(h) {
				r.execute(h)
				progress = true
				changed = true
			} else {
				keep = append(keep, h)
			}
		}
		s.front = keep
		if !progress {
			if changed {
				r.frontGen++
			}
			return
		}
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

// execute emits gate h remapped to physical qubits (Remap inlined: a
// method value would escape) and retires it.
//
//sabre:hotpath
func (r *router) execute(h int) {
	g := r.gates[h]
	g.Q0 = r.layout.Phys(g.Q0)
	if g.TwoQubit() {
		g.Q1 = r.layout.Phys(g.Q1)
		// Paper §V: decay resets whenever a CNOT is executed.
		r.resetDecay()
		r.stall = 0
		r.done2q++
	}
	r.s.out = append(r.s.out, g)
	r.retire(h)
}

// retire counts h as executed and releases its successors into the
// ready list.
//
//sabre:hotpath
func (r *router) retire(h int) {
	r.done++
	r.s.ready = r.deps.release(h, r.s.ready)
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
// two-qubit gates that follow the front layer in the dependency store
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
	// BFS from the front layer through the dependency store.
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
		s0, s1 := r.deps.succs(queue[head])
		for _, succ := range [2]int{s0, s1} {
			if succ < 0 || s.gateMark[succ] == epoch {
				continue
			}
			s.gateMark[succ] = epoch
			if r.q2[2*succ] >= 0 {
				s.extended = append(s.extended, succ)
				if len(s.extended) >= limit {
					break
				}
			}
			queue = append(queue, succ)
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
	s.out = append(s.out, circuit.Swap(e.A, e.B))
	qa, qb := r.layout.Log(e.A), r.layout.Log(e.B)
	r.layout.SwapPhysical(e.A, e.B)
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
	oldest := r.deps.seq(g)
	for _, h := range r.s.front[1:] {
		if q := r.deps.seq(h); q < oldest {
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
