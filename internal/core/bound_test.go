package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/mapping"
	"repro/internal/workloads"
)

// TestScoreBoundExactAndPrunes walks every SWAP round of two forward
// traversals on Tokyo — 9symml_195 and a 50k-gate random trace shaped
// like the stream benchmark's (18 qubits, 55% CX) — and holds
// scoreBound to the exact score of every candidate: it may never
// exceed it, and it must rule out (lie above the tie band of the best
// score so far, the test scoreBitset makes) at least 40% of them. An
// unsound bound skips candidates that could win or tie; one that stops
// pruning saves nothing.
func TestScoreBoundExactAndPrunes(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	b, _ := workloads.ByName("9symml_195")
	for _, tc := range []struct {
		name string
		circ *circuit.Circuit
	}{
		{"9symml_195", b.Build()},
		{"trace_50k", workloads.RandomCircuit("trace", 18, 50_000, 0.55, 5)},
	} {
		pr := NewPassRunner(tc.circ.Widen(dev.NumQubits()), dev, DefaultOptions())
		rng := rand.New(rand.NewSource(1))
		r := pr.newRouter(mapping.Random(dev.NumQubits(), rng), rng, nil, nil)
		cands, ruled := 0, 0
		for {
			r.drain()
			if len(r.s.front) == 0 {
				break
			}
			if r.stall >= r.maxStall {
				r.forceRoute()
				continue
			}
			r.collectCandidates()
			r.ensureExtended()
			r.setRoundScale()
			r.buildRoundIndexBitset()
			off := r.s.extOff
			best := math.Inf(1)
			for i := range r.s.candIDs {
				e := r.candidate(i)
				qa, qb := r.layout.Log(e.A), r.layout.Log(e.B)
				exact := r.scoreSwapExhaustive(e)
				r.layout.SwapPhysical(e.A, e.B)
				front := r.frontDistanceSum()
				r.layout.SwapPhysical(e.A, e.B)
				partners := int(off[qa+1] - off[qa] + off[qb+1] - off[qb])
				d := max(r.s.decay[qa], r.s.decay[qb])
				bound := scoreBound(r.opts.Heuristic, r.invF, r.invE, front, int(r.extSumI), partners, d)
				if bound > exact {
					t.Fatalf("%s round %d: bound %v exceeds the exact score %v of SWAP %v",
						tc.name, r.stats.SwapRounds, bound, exact, e)
				}
				cands++
				if bound > best+1e-12 {
					ruled++
				}
				if exact < best-1e-12 {
					best = exact
				}
			}
			r.applySwap(r.scoreRound())
		}
		frac := float64(ruled) / float64(cands)
		t.Logf("%s: %d rounds, bound rules out %d of %d candidates (%.1f%%)",
			tc.name, r.stats.SwapRounds, ruled, cands, 100*frac)
		if frac < 0.4 {
			t.Errorf("%s: bound rules out %.1f%% of candidates, want >= 40%%", tc.name, 100*frac)
		}
	}
}
