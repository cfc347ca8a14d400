// Package core implements SABRE, the SWAP-based BidiREctional heuristic
// search algorithm for the qubit mapping problem (paper §IV): the
// preprocessing pipeline (§IV-A), the SWAP-based heuristic search of
// Algorithm 1 (§IV-B), the heuristic cost functions of Eq. 1 and Eq. 2
// (§IV-D) with look-ahead and decay, and the reverse-traversal initial
// mapping technique (§IV-C2).
package core

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// Heuristic selects the cost function used to score candidate SWAPs.
type Heuristic uint8

const (
	// HeuristicBasic is Eq. 1: the summed nearest-neighbour distance of
	// the front-layer qubit pairs.
	HeuristicBasic Heuristic = iota
	// HeuristicLookahead is Eq. 2 with δ=0: size-normalized front-layer
	// term plus W-weighted extended-set term.
	HeuristicLookahead
	// HeuristicDecay is the full Eq. 2 including the decay factor that
	// steers the search toward non-overlapping (parallel) SWAPs.
	HeuristicDecay
)

// String implements fmt.Stringer.
func (h Heuristic) String() string {
	switch h {
	case HeuristicBasic:
		return "basic"
	case HeuristicLookahead:
		return "lookahead"
	case HeuristicDecay:
		return "decay"
	default:
		return fmt.Sprintf("heuristic(%d)", uint8(h))
	}
}

// Scoring selects the engine that evaluates candidate SWAPs each
// round. Both engines share candidate collection (ascending dense edge
// id) and winner selection (one reservoir-sampled tie break over the
// same score sequence), so for any circuit and seed they produce
// byte-identical routed output; the golden suite pins the bitset
// engine against the exhaustive reference.
type Scoring uint8

const (
	// ScoringBitset is the default production engine: candidates are
	// gathered by OR-ing per-qubit incident-edge bitsets and iterated
	// with bits.TrailingZeros64; per-qubit round state is a flat CSR
	// index over physical partners, so the per-candidate loop is a
	// straight-line gather with no membership branch. Any value other
	// than ScoringExhaustive selects it, including 1, the retired delta
	// engine that old job-log records may still name.
	ScoringBitset Scoring = 0
	// ScoringExhaustive rescores every front/extended gate from scratch
	// per candidate — the reference behavior, kept for validation and
	// for benchmarking the bitset engine against it. See heuristic.go
	// for its float-associativity caveat under noise models.
	ScoringExhaustive Scoring = 2
)

// String implements fmt.Stringer.
func (s Scoring) String() string {
	switch s {
	case ScoringBitset:
		return "bitset"
	case ScoringExhaustive:
		return "exhaustive"
	default:
		return fmt.Sprintf("scoring(%d)", uint8(s))
	}
}

// Options configures SABRE. The zero value is not meaningful; start
// from DefaultOptions, which mirrors the paper's §V "Algorithm
// Configuration".
type Options struct {
	// Heuristic picks the cost function (default HeuristicDecay).
	Heuristic Heuristic

	// ExtendedSetSize is |E|, the number of look-ahead two-qubit gates
	// beyond the front layer (paper uses 20).
	ExtendedSetSize int

	// ExtendedSetWeight is W in Eq. 2, 0 ≤ W < 1 (paper uses 0.5).
	ExtendedSetWeight float64

	// DecayDelta is δ: the decay increment applied to a qubit's decay
	// parameter each time it participates in a selected SWAP (paper
	// uses 0.001). Larger δ pushes the search toward non-overlapping
	// SWAPs, trading gate count for depth (paper §IV-C3, Fig. 8).
	DecayDelta float64

	// DecayResetInterval resets all decay parameters after this many
	// consecutive SWAP selections (paper resets every 5 search steps;
	// decay is also reset whenever a CNOT is executed).
	DecayResetInterval int

	// Trials is the number of independent random initial mappings; the
	// best result is kept (paper uses 5).
	Trials int

	// Traversals is the number of forward/backward passes per trial
	// (paper uses 3: forward-backward-forward). Must be odd so the
	// final pass runs the original circuit; Compile rounds up.
	Traversals int

	// Seed makes runs reproducible. Trials t uses Seed+t.
	Seed int64

	// MaxStall bounds consecutive SWAP insertions without executing a
	// gate before the router falls back to deterministic shortest-path
	// routing of the oldest front gate (a termination safeguard; 0
	// selects 4·diameter+16). See ARCHITECTURE.md § Routing hot path.
	MaxStall int

	// UseBridge enables the 4-CNOT bridge transformation for distance-2
	// CNOTs whose qubit pair does not recur in the extended set: same
	// 3-gate overhead as a SWAP, but the mapping is left untouched
	// (§VI's circuit-transformation extension).
	UseBridge bool

	// Noise, when non-nil, makes the heuristic route over
	// reliability-weighted distances (-ln(1-err) per edge) instead of
	// hop counts — the variability-aware extension of §VI. The weighted
	// matrix is computed once per model and memoized on the device
	// (arch.Device.WeightedDistancesFor), so every traversal shares it.
	Noise *arch.NoiseModel

	// MaxEdgeError, with Noise set, excludes couplers whose error rate
	// exceeds it from routing entirely (near-dead couplers). Edges are
	// restored best-first if pruning would disconnect the chip. 0
	// disables pruning.
	MaxEdgeError float64

	// Scoring selects the round-scoring engine (default ScoringBitset).
	// Both engines route identically — see the Scoring type — so this
	// field is excluded from batch cache keys.
	Scoring Scoring
}

// DefaultOptions returns the paper's evaluation configuration:
// |E|=20, W=0.5, δ=0.001 with reset interval 5, 5 trials, 3 traversals.
func DefaultOptions() Options {
	return Options{
		Heuristic:          HeuristicDecay,
		ExtendedSetSize:    20,
		ExtendedSetWeight:  0.5,
		DecayDelta:         0.001,
		DecayResetInterval: 5,
		Trials:             5,
		Traversals:         3,
		Seed:               1,
	}
}

// normalized fills zero fields with defaults and repairs out-of-range
// values so the router never has to re-validate.
func (o Options) normalized() Options {
	d := DefaultOptions()
	if o.ExtendedSetSize <= 0 {
		o.ExtendedSetSize = d.ExtendedSetSize
	}
	if o.ExtendedSetWeight <= 0 || o.ExtendedSetWeight >= 1 {
		// W=0 is expressible via HeuristicBasic; treat 0 as unset.
		o.ExtendedSetWeight = d.ExtendedSetWeight
	}
	if o.DecayDelta < 0 {
		o.DecayDelta = d.DecayDelta
	}
	if o.DecayResetInterval <= 0 {
		o.DecayResetInterval = d.DecayResetInterval
	}
	if o.Trials <= 0 {
		o.Trials = d.Trials
	}
	if o.Traversals <= 0 {
		o.Traversals = d.Traversals
	}
	if o.Traversals%2 == 0 {
		o.Traversals++
	}
	if o.Scoring != ScoringExhaustive {
		o.Scoring = ScoringBitset
	}
	return o
}

// Result is the outcome of Compile: the hardware-compliant physical
// circuit and its accounting, mirroring the paper's Table II columns.
type Result struct {
	// Circuit is the routed circuit over the device's physical qubits,
	// with inserted SWAPs kept symbolic (use DecomposeSwaps for the
	// pure {1q, CX} form whose counts Table II reports).
	Circuit *circuit.Circuit

	// InitialLayout and FinalLayout are logical→physical assignments
	// before the first and after the last output gate.
	InitialLayout []int
	FinalLayout   []int

	// SwapCount and BridgeCount are the inserted SWAPs and bridges;
	// AddedGates = 3·SwapCount + 3·BridgeCount (a SWAP decomposes into
	// 3 CNOTs; a bridge realizes one CNOT with 4).
	SwapCount   int
	BridgeCount int
	AddedGates  int

	// FirstTraversalAdded is g_la: added gates after the first forward
	// traversal of the winning trial, before reverse-traversal
	// improvement (Table II's g_la column).
	FirstTraversalAdded int

	// TrialsRun counts the random restarts performed.
	TrialsRun int

	// Stats instruments the winning trial's final traversal.
	Stats PassStats

	// Elapsed is the wall-clock compile time (Table II's t_op).
	Elapsed time.Duration

	// pending holds a RunTrialCtx result's circuit unbuilt until
	// SelectBest picks it (nil once Circuit is set).
	pending *trialLog
}
