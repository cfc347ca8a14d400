// Package metrics computes the evaluation metrics of paper §III-B —
// total gate count and circuit depth of the hardware-compliant circuit
// — plus the NISQ-motivated derived quantities (estimated fidelity
// under the Fig. 2 error model and execution time against the qubit
// coherence budget) that motivate minimizing them.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// Report summarizes a circuit against an optional reference ("original")
// circuit, in the shape of the paper's Table II columns.
type Report struct {
	Name          string
	NumQubits     int
	Gates         int // g_tot
	TwoQubitGates int
	Depth         int // d
	AddedGates    int // g_add relative to the reference (-1 if none)
	RefGates      int // g_ori
	RefDepth      int
}

// Measure computes a Report for c. Each SWAP counts as the 3 CNOTs it
// decomposes into, matching the paper's gate accounting (a SWAP costs
// 3 CNOTs, §III-A): 3 gates, 3 two-qubit gates and 3 steps of depth on
// its pair, as if c.DecomposeSwaps() were measured.
func Measure(c *circuit.Circuit) Report {
	r := Report{Name: c.Name(), NumQubits: c.NumQubits(), AddedGates: -1}
	if c.NumQubits() == 0 {
		return r
	}
	// level[q] is the ASAP finishing step of the last gate on q.
	level := make([]int, c.NumQubits())
	for _, g := range c.Gates() {
		cost := gateCost(g)
		r.Gates += cost
		t := level[g.Q0]
		if g.TwoQubit() {
			r.TwoQubitGates += cost
			t = max(t, level[g.Q1])
			level[g.Q1] = t + cost
		}
		level[g.Q0] = t + cost
		r.Depth = max(r.Depth, t+cost)
	}
	return r
}

// Compare computes a Report for routed relative to the original circuit.
func Compare(orig, routed *circuit.Circuit) Report {
	r := Measure(routed)
	o := Measure(orig)
	r.Name = orig.Name()
	r.RefGates = o.Gates
	r.RefDepth = o.Depth
	r.AddedGates = r.Gates - o.Gates
	return r
}

// String renders the report as one human-readable line.
func (r Report) String() string {
	if r.AddedGates >= 0 {
		return fmt.Sprintf("%s: n=%d g_ori=%d g_add=%d g_tot=%d depth=%d (ref depth %d)",
			r.Name, r.NumQubits, r.RefGates, r.AddedGates, r.Gates, r.Depth, r.RefDepth)
	}
	return fmt.Sprintf("%s: n=%d g=%d depth=%d", r.Name, r.NumQubits, r.Gates, r.Depth)
}

// swapCX is the number of CNOTs a SWAP decomposes into (paper Fig. 3a).
// Every metric here counts a SWAP as that many CX in place, matching
// c.DecomposeSwaps() without copying the circuit.
const swapCX = 3

// gateCost returns how many gates g counts as: swapCX for a SWAP, else 1.
func gateCost(g circuit.Gate) int {
	if g.Kind == circuit.KindSwap {
		return swapCX
	}
	return 1
}

// QubitUtilization returns, per wire, the number of gates touching it
// (a SWAP counted as its 3 CX). Hot qubits accumulate error fastest;
// the spread diagnoses how evenly a router distributes traffic.
func QubitUtilization(c *circuit.Circuit) []int {
	out := make([]int, c.NumQubits())
	for _, g := range c.Gates() {
		n := gateCost(g)
		out[g.Q0] += n
		if g.TwoQubit() {
			out[g.Q1] += n
		}
	}
	return out
}

// OverheadBreakdown decomposes a routed circuit's gate count into the
// original gates and the routing overhead, per kind.
type OverheadBreakdown struct {
	OriginalGates int
	RoutedGates   int // after SWAP decomposition
	AddedGates    int
	AddedCNOTs    int
	SwapsInserted int // symbolic SWAPs before decomposition
	OverheadRatio float64
	TwoQubitShare float64 // fraction of routed gates that are 2-qubit
}

// Breakdown computes the overhead decomposition of routed vs orig,
// both counted with each SWAP as its 3 CX.
func Breakdown(orig, routed *circuit.Circuit) OverheadBreakdown {
	r, o := Measure(routed), Measure(orig)
	b := OverheadBreakdown{
		OriginalGates: o.Gates,
		RoutedGates:   r.Gates,
		SwapsInserted: routed.CountKind(circuit.KindSwap),
	}
	b.AddedGates = b.RoutedGates - b.OriginalGates
	b.AddedCNOTs = cxCount(routed) - cxCount(orig)
	if b.OriginalGates > 0 {
		b.OverheadRatio = float64(b.RoutedGates) / float64(b.OriginalGates)
	}
	if r.Gates > 0 {
		b.TwoQubitShare = float64(r.TwoQubitGates) / float64(r.Gates)
	}
	return b
}

// cxCount is the CX count of c with each SWAP as its 3 CX.
func cxCount(c *circuit.Circuit) int {
	return c.CountKind(circuit.KindCX) + swapCX*c.CountKind(circuit.KindSwap)
}

// EstimateFidelity returns the product of per-gate success
// probabilities under the error model: (1-e1)^s · (1-e2)^t · (1-em)^m
// for s single-qubit gates, t two-qubit gates and m measurements.
// A SWAP counts as its 3 CX, multiplied in one at a time as the
// decomposed circuit would be. This is the standard first-order model
// behind the paper's fidelity objective (§III-B).
func EstimateFidelity(c *circuit.Circuit, em arch.ErrorModel) float64 {
	f := 1.0
	for _, g := range c.Gates() {
		switch {
		case g.Kind == circuit.KindMeasure:
			f *= 1 - em.MeasurementError
		case g.Kind == circuit.KindBarrier:
			// no physical operation
		case g.TwoQubit():
			for i := gateCost(g); i > 0; i-- {
				f *= 1 - em.TwoQubitError
			}
		default:
			f *= 1 - em.SingleQubitError
		}
	}
	return f
}

// EstimateDuration returns the critical-path execution time in
// nanoseconds under ASAP scheduling with per-kind gate durations. A
// SWAP runs as its 3 CX back to back on its pair.
func EstimateDuration(c *circuit.Circuit, em arch.ErrorModel) float64 {
	if c.NumQubits() == 0 {
		return 0
	}
	finish := make([]float64, c.NumQubits())
	var makespan float64
	for _, g := range c.Gates() {
		var dur float64
		switch {
		case g.Kind == circuit.KindBarrier:
			dur = 0
		case g.TwoQubit():
			dur = em.TwoQubitNanos
		default:
			dur = em.SingleQubitNanos
		}
		end := finish[g.Q0]
		if g.TwoQubit() && finish[g.Q1] > end {
			end = finish[g.Q1]
		}
		for i := gateCost(g); i > 0; i-- {
			end += dur
			if end > makespan {
				makespan = end
			}
		}
		finish[g.Q0] = end
		if g.TwoQubit() {
			finish[g.Q1] = end
		}
	}
	return makespan
}

// CoherenceBudgetOK reports whether the estimated duration fits within
// frac of the device's T2 dephasing time (the paper's "fraction of
// qubit coherence time" constraint, §II-B). frac is typically ≪ 1.
func CoherenceBudgetOK(c *circuit.Circuit, em arch.ErrorModel, frac float64) bool {
	t2nanos := em.T2Microseconds * 1000
	return EstimateDuration(c, em) <= frac*t2nanos
}

// DecoherenceFactor returns exp(-t/T2) for the circuit's critical path,
// a crude bound on coherence surviving execution.
func DecoherenceFactor(c *circuit.Circuit, em arch.ErrorModel) float64 {
	t2nanos := em.T2Microseconds * 1000
	if t2nanos == 0 {
		return 0
	}
	return math.Exp(-EstimateDuration(c, em) / t2nanos)
}
