package core

import (
	"math"

	"repro/internal/arch"
)

// This file implements the heuristic cost function H (Eq. 1 and Eq. 2)
// with incremental scoring. The paper's §IV-C1 point is that the
// candidate list is O(N); the remaining per-round cost was our own:
// re-summing the whole front layer and extended set for every
// candidate made a round O(|cand|·(|F|+|E|)). Instead, the base sums
//
//	Σ_{g∈F} D[π(q1)][π(q2)]   and   Σ_{g∈E} D[π(q1)][π(q2)]
//
// are computed once per round (buildRoundIndexBitset), and a candidate
// SWAP on edge (A, B) rescores as base + Δ, where Δ ranges only over
// the gates touching the two swapped logical qubits — O(deg) per
// candidate, found through a per-qubit partner index built in the same
// pass as the sums.
//
// Determinism contract: with hop-count distances (the default and the
// paper's configuration) every sum is an integer, so base+Δ is exact
// and equals the from-scratch sum no matter the accumulation order.
// The weighted (noise-model) sums accumulate in float64 in
// front/extended order for the base, exactly as the exhaustive scorer
// does; the delta then adds the (few) changed terms at the end, which
// re-associates the accumulation and can differ from the from-scratch
// sum by ~1 ulp. That could in principle flip a score that lands
// within ~1e-16 of the 1e-12 tie band; the golden determinism suite
// asserts the bitset engine and the exhaustive reference
// (ScoringExhaustive) route the entire workload suite byte-identically,
// including the noise configurations.

// buildRoundIndexBitset computes the front/extended base distance
// sums under the current layout and indexes, per logical qubit, the
// partners of the front/extended gates touching it, in two flat
// structures. Front gates are vertex-disjoint (two gates sharing a
// qubit are DAG-ordered, so at most one is ever in F), which collapses
// the front index to one slot per qubit: fpart[q] = the physical qubit
// of q's front partner, or -1. The extended set is not disjoint, so it
// gets a CSR array — one counting pass, a prefix-sum, then a fill pass
// that resolves each gate's *other* endpoint to its physical qubit and
// writes it into the qubit's segment, in extended-list order.
// Everything it writes lives in the Scratch.
//
//sabre:hotpath
func (r *router) buildRoundIndexBitset() {
	s := r.s
	n := r.n
	q2 := r.q2
	fpart, cnt, off := s.fpart, s.extCnt, s.extOff
	if r.idxGen != r.frontGen {
		// Layout-independent half, recomputed only when the front layer
		// (and with it the extended set) changed: wipe fpart — the
		// occupied slots of the previous front are unknown, so clear
		// all n — and rebuild extOff by counting + prefix-summing the
		// extended gates' qubit occurrences. While the front is stable
		// (consecutive non-executing rounds) both survive as-is; only
		// the cursors and the partner/sum fill below run per round.
		r.idxGen = r.frontGen
		for i := 0; i < n; i++ {
			fpart[i] = -1
			cnt[i] = 0
		}
		for _, gi := range s.extended {
			cnt[q2[2*gi]]++
			cnt[q2[2*gi+1]]++
		}
		total := int32(0)
		for q := 0; q < n; q++ {
			off[q] = total
			total += cnt[q]
		}
		off[n] = total
		if cap(s.extPhys) < int(total) {
			//sabre:alloc-ok amortized Scratch grow; steady-state rounds reuse the buffer
			s.extPhys = make([]int32, total)
		}
		s.extPhys = s.extPhys[:total]
	}
	// Per-round: reset the fill cursors to the segment starts, then
	// resolve every partner endpoint under the *current* layout and
	// accumulate the base sums (both change on every applied SWAP).
	copy(cnt, off[:n])
	phys := s.extPhys

	r.frontSumI, r.extSumI = 0, 0
	r.frontSumF, r.extSumF = 0, 0
	weighted := r.wdist != nil
	for _, gi := range s.front {
		q0, q1 := q2[2*gi], q2[2*gi+1]
		pa, pb := r.layout.Phys(int(q0)), r.layout.Phys(int(q1))
		if weighted {
			r.frontSumF += r.wdist[pa*n+pb]
		} else {
			r.frontSumI += int64(r.dist[pa*n+pb])
		}
		fpart[q0] = int32(pb)
		fpart[q1] = int32(pa)
	}
	for _, gi := range s.extended {
		q0, q1 := q2[2*gi], q2[2*gi+1]
		pa, pb := r.layout.Phys(int(q0)), r.layout.Phys(int(q1))
		if weighted {
			r.extSumF += r.wdist[pa*n+pb]
		} else {
			r.extSumI += int64(r.dist[pa*n+pb])
		}
		phys[cnt[q0]] = int32(pb)
		cnt[q0]++
		phys[cnt[q1]] = int32(pa)
		cnt[q1]++
	}
}

// scoreCandidatesBitset scores every candidate from the bitset round
// index and returns the winning candidate's index, dispatching once
// per round (not per candidate) on the distance-matrix type.
//
//sabre:hotpath
func (r *router) scoreCandidatesBitset() int {
	if r.wdist != nil {
		return scoreBitset(r, r.wdist, r.frontSumF, r.extSumF, false)
	}
	return scoreBitset(r, r.dist, int(r.frontSumI), int(r.extSumI), true)
}

// scoreBitset is the branch-free candidate scoring loop. For each
// candidate edge (A, B) it reads the two swapped logical qubits' front
// partners from the single-slot fpart index and their extended
// partners from the CSR segments, accumulating rowB[p]-rowA[p]
// (negated for qb's terms) over pre-resolved partner physical qubits:
// no gate fetch, no membership decode, no layout lookup inside the
// loop. The only data-dependent branch left is the pair-gate skip
// (partner == other swapped qubit), whose distance term D[A][B] →
// D[B][A] is zero by symmetry and must not be accumulated — on the
// weighted path adding-then-subtracting it would still perturb the
// float stream. The accumulation order is fixed per accumulator (qa's
// front term then qb's into dF; qa's extended then qb's into dE), and
// integer scores are exact.
//
// Winner selection is fused into the same pass instead of a second
// sweep over a score buffer: the reservoir tie-break below performs
// exactly the comparisons, in exactly the order, of selectBest — the
// same strict-improvement threshold, the same 1e-12 tie band, the
// same rng.Intn(ties) draw per tie — so the RNG stream, and with it
// the routed output, stays byte-identical to the exhaustive reference
// (asserted by the golden suite). Returns the winning candidate's
// index.
//
// With hop counts (hops) a candidate whose scoreBound already lies
// above the tie band is skipped before its extended-set terms are
// summed: its score could neither win nor tie, so no comparison or
// RNG draw is lost.
//
//sabre:hotpath
func scoreBitset[D int | float64](r *router, dist []D, baseF, baseE D, hops bool) int {
	s := r.s
	n := r.n
	fpart, off, phys := s.fpart, s.extOff, s.extPhys
	decay := s.decay
	ends := r.ends
	invF, invE := r.invF, r.invE
	heur := r.opts.Heuristic
	rng := r.rng
	// +Inf sentinel: the first candidate takes the strict-improvement
	// branch (score < Inf), initializing best/ties without an RNG draw —
	// exactly what selectBest's explicit first-element init does.
	best, bestScore, ties := 0, math.Inf(1), 0
	for ci, id := range s.candIDs {
		A, B := int(ends[2*id]), int(ends[2*id+1])
		rowA := dist[A*n : A*n+n]
		rowB := dist[B*n : B*n+n]
		qa, qb := r.layout.Log(A), r.layout.Log(B)

		var dF, dE D
		if pp := fpart[qa]; pp >= 0 && int(pp) != B {
			dF += rowB[pp] - rowA[pp]
		}
		if pp := fpart[qb]; pp >= 0 && int(pp) != A {
			dF += rowA[pp] - rowB[pp]
		}
		front := float64(baseF + dF)
		d := decay[qa]
		if decay[qb] > d {
			d = decay[qb]
		}
		extA, extB := phys[off[qa]:off[qa+1]], phys[off[qb]:off[qb+1]]
		if hops && scoreBound(heur, invF, invE, front, int(baseE), len(extA)+len(extB), d) > bestScore+1e-12 {
			continue
		}
		for _, pp := range extA {
			if int(pp) == B {
				continue
			}
			dE += rowB[pp] - rowA[pp]
		}
		for _, pp := range extB {
			if int(pp) == A {
				continue
			}
			dE += rowA[pp] - rowB[pp]
		}
		score := cost(heur, invF, invE, front, float64(baseE+dE), d)

		switch {
		case score < bestScore-1e-12:
			best, bestScore, ties = ci, score, 1
		case score <= bestScore+1e-12:
			ties++
			if rng.Intn(ties) == 0 {
				best = ci
			}
		}
	}
	return best
}

// cost is the heuristic cost function H of a candidate SWAP, from its
// front and extended distance sums and its decay factor d (the larger
// of its two qubits'): Eq. 1, or Eq. 2 with or without decay, with the
// per-round reciprocals invF and invE (see setRoundScale). It is
// monotone in ext: invE and d are non-negative, and IEEE rounding is
// monotone.
//
//sabre:hotpath
func cost(heur Heuristic, invF, invE, front, ext, d float64) float64 {
	switch heur {
	case HeuristicBasic:
		return front
	case HeuristicLookahead:
		return front*invF + ext*invE
	}
	return d * (front*invF + ext*invE)
}

// scoreBound is an exact lower bound on the hop-count score of a
// candidate SWAP whose front sum is front and whose two qubits have
// partners extended-set terms in the round index, taken before those
// terms are summed. The SWAP's edge is a coupler, so it moves each
// partner distance by at most one hop and the extended sum is at least
// baseE-partners. The sums are exact integers and cost is monotone in
// the extended sum, so the bound, evaluated by the score's own
// expression, never exceeds the score.
//
//sabre:hotpath
func scoreBound(heur Heuristic, invF, invE, front float64, baseE, partners int, d float64) float64 {
	return cost(heur, invF, invE, front, float64(baseE-partners), d)
}

// scoreSwapExhaustive evaluates the heuristic cost function H for one
// candidate SWAP (Algorithm 1 lines 20-23) the reference way: apply
// the SWAP to the layout, re-sum every front/extended gate from
// scratch, undo the SWAP. O(|F|+|E|) per candidate where the bitset
// engine is O(deg). Kept selectable (ScoringExhaustive) as the oracle
// the golden determinism suite compares the bitset engine against.
//
//sabre:hotpath
func (r *router) scoreSwapExhaustive(e arch.Edge) float64 {
	qa, qb := r.layout.Log(e.A), r.layout.Log(e.B)

	r.layout.SwapPhysical(e.A, e.B)
	var score float64
	switch r.opts.Heuristic {
	case HeuristicBasic:
		score = r.frontDistanceSum()
	case HeuristicLookahead:
		score = r.lookaheadScore()
	case HeuristicDecay:
		d := r.s.decay[qa]
		if r.s.decay[qb] > d {
			d = r.s.decay[qb]
		}
		score = d * r.lookaheadScore()
	}
	r.layout.SwapPhysical(e.A, e.B)
	return score
}

// frontDistanceSum is Eq. 1: Σ_{gate∈F} D[π(q1)][π(q2)], with D the
// hop-count matrix or, under a noise model, the reliability-weighted
// matrix (§VI extension).
//
//sabre:hotpath
func (r *router) frontDistanceSum() float64 {
	sum := 0.0
	for _, h := range r.s.front {
		sum += r.distAt(r.layout.Phys(int(r.q2[2*h])), r.layout.Phys(int(r.q2[2*h+1])))
	}
	return sum
}

// lookaheadScore is Eq. 2 without the decay factor: the size-normalized
// front-layer distance sum plus the W-weighted extended-set term,
// computed as multiplications by the per-round reciprocals
// (setRoundScale). The bitset scorer evaluates the identical
// expression, so the floating-point rounding, and therefore the
// tie-break stream, is engine-independent.
//
//sabre:hotpath
func (r *router) lookaheadScore() float64 {
	extSum := 0.0
	for _, h := range r.s.extended {
		extSum += r.distAt(r.layout.Phys(int(r.q2[2*h])), r.layout.Phys(int(r.q2[2*h+1])))
	}
	return r.frontDistanceSum()*r.invF + extSum*r.invE
}
