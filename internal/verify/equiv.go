package verify

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// MaxSimQubits bounds the width of state-vector equivalence checks.
const MaxSimQubits = 16

// EquivalentStates verifies by simulation that the routed circuit
// implements the original circuit under the given layouts. For each of
// `trials` random states |ψ⟩ it checks that
//
//	Permute(π_f)⁻¹ · U_routed · Permute(π₀) |ψ⟩  ==  U_orig |ψ⟩
//
// up to global phase. Random-state agreement over several trials makes
// a false positive vanishingly unlikely. Only usable up to
// MaxSimQubits; CheckRouted covers arbitrary sizes for linear circuits.
func EquivalentStates(orig, routed *circuit.Circuit, initL2P, finalL2P []int, trials int, rng *rand.Rand) error {
	if routed.NumQubits() > MaxSimQubits {
		return fmt.Errorf("verify: %d qubits exceeds simulation limit %d", routed.NumQubits(), MaxSimQubits)
	}
	if routed.NumQubits() < orig.NumQubits() {
		return fmt.Errorf("verify: routed circuit narrower than original")
	}
	n := routed.NumQubits()
	wide := orig.Widen(n)
	if len(initL2P) != n || len(finalL2P) != n {
		return fmt.Errorf("verify: layout sizes do not match width %d", n)
	}
	if trials < 1 {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		psi := sim.NewRandomState(n, rng)

		want := psi.Clone()
		want.ApplyCircuit(wide)

		// Place logical qubit q on physical wire π₀(q), run, then read
		// logical q from physical wire π_f(q) by permuting back.
		got := psi.PermuteQubits(initL2P)
		got.ApplyCircuit(routed)
		inv := make([]int, n)
		for q, p := range finalL2P {
			inv[p] = q
		}
		got = got.PermuteQubits(inv)

		if !got.EqualUpToGlobalPhase(want, 1e-9) {
			return fmt.Errorf("verify: state mismatch on trial %d (fidelity %.6f)", trial, got.Fidelity(want))
		}
	}
	return nil
}

// HardwareCompliant reports whether every two-qubit gate of c acts on
// a coupled physical qubit pair, per the connectivity oracle. It is the
// final acceptance check a routed circuit must pass (paper §III
// definition: "satisfy all two-qubit constraints"). A SWAP on (a, b)
// is checked in both directions, as its decomposition CX(a,b) CX(b,a)
// CX(a,b) is, so the verdict on c is the verdict on c.DecomposeSwaps()
// for any connected, without the copy.
func HardwareCompliant(c *circuit.Circuit, connected func(a, b int) bool) error {
	for i, g := range c.Gates() {
		if !g.TwoQubit() {
			continue
		}
		if !connected(g.Q0, g.Q1) {
			return fmt.Errorf("verify: gate %d (%v) acts on uncoupled qubits %d,%d", i, g.Kind, g.Q0, g.Q1)
		}
		if g.Kind == circuit.KindSwap && !connected(g.Q1, g.Q0) {
			return fmt.Errorf("verify: gate %d (%v) acts on uncoupled qubits %d,%d", i, g.Kind, g.Q1, g.Q0)
		}
	}
	return nil
}
