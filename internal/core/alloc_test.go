package core

import (
	"fmt"
	"testing"
)

// steadyStateRouter returns a router parked at its first SWAP-selection
// round of the probe workload (see ScoreRoundProbe): front layer
// populated, nothing executable, buffers warm. Used by the alloc guard
// and BenchmarkScoreRound.
func steadyStateRouter(tb testing.TB, scoring Scoring) *router {
	tb.Helper()
	return NewScoreRoundProbe(scoring).r
}

// TestScoreRoundZeroAllocs is the hot-loop allocation guard: once the
// scratch is warm, a steady-state SWAP-selection round — candidate
// collection, extended-set lookup, index + base-sum rebuild, and
// scoring every candidate — must not touch the heap at all, under
// either scoring engine. If an allocation creeps back into the
// round (a map, a fresh slice, a closure capture), this fails loudly.
func TestScoreRoundZeroAllocs(t *testing.T) {
	for _, scoring := range []Scoring{ScoringBitset, ScoringExhaustive} {
		t.Run(scoring.String(), func(t *testing.T) {
			r := steadyStateRouter(t, scoring)
			allocs := testing.AllocsPerRun(200, func() {
				_ = r.scoreRound()
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s SWAP round performs %v allocs/round, want 0", scoring, allocs)
			}
		})
	}
}

// TestApplySwapZeroAllocs guards the apply side of a round: emitting
// the winning SWAP, updating the layout, and the decay bookkeeping
// must stay off the heap once the output buffer is warm. Applying the
// same edge twice restores the layout (SWAP is an involution), so the
// round-trip measures steady state without drifting the router.
func TestApplySwapZeroAllocs(t *testing.T) {
	r := steadyStateRouter(t, ScoringBitset)
	e := r.candidate(0)
	n := len(r.s.out)
	r.applySwap(e)
	r.applySwap(e) // warm the output buffer past the append growth
	r.s.out = r.s.out[:n]
	allocs := testing.AllocsPerRun(200, func() {
		r.applySwap(e)
		r.applySwap(e)
		if r.hop(e.A, e.B) != 1 {
			t.Fatal("candidate edge is not a coupler")
		}
		r.s.out = r.s.out[:n]
	})
	if allocs != 0 {
		t.Fatalf("steady-state SWAP application performs %v allocs, want 0", allocs)
	}
}

// BenchmarkScoreRound measures one SWAP-selection round in isolation
// under each engine: branch-free bitset gather (the default, base +
// O(deg) per candidate) and the exhaustive reference (O(|F|+|E|) per
// candidate). Same state, same winner.
func BenchmarkScoreRound(b *testing.B) {
	for _, scoring := range []Scoring{ScoringBitset, ScoringExhaustive} {
		b.Run(fmt.Sprint(scoring), func(b *testing.B) {
			r := steadyStateRouter(b, scoring)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = r.scoreRound()
			}
		})
	}
}
