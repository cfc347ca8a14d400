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
		cost := 1
		if g.Kind == circuit.KindSwap {
			cost = 3
		}
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

// QubitUtilization returns, per wire, the number of gates touching it
// (SWAPs decomposed first). Hot qubits accumulate error fastest; the
// spread diagnoses how evenly a router distributes traffic.
func QubitUtilization(c *circuit.Circuit) []int {
	d := c.DecomposeSwaps()
	out := make([]int, d.NumQubits())
	for _, g := range d.Gates() {
		out[g.Q0]++
		if g.TwoQubit() {
			out[g.Q1]++
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

// Breakdown computes the overhead decomposition of routed vs orig.
func Breakdown(orig, routed *circuit.Circuit) OverheadBreakdown {
	d := routed.DecomposeSwaps()
	b := OverheadBreakdown{
		OriginalGates: orig.DecomposeSwaps().NumGates(),
		RoutedGates:   d.NumGates(),
		SwapsInserted: routed.CountKind(circuit.KindSwap),
	}
	b.AddedGates = b.RoutedGates - b.OriginalGates
	b.AddedCNOTs = d.CountKind(circuit.KindCX) - orig.DecomposeSwaps().CountKind(circuit.KindCX)
	if b.OriginalGates > 0 {
		b.OverheadRatio = float64(b.RoutedGates) / float64(b.OriginalGates)
	}
	if d.NumGates() > 0 {
		b.TwoQubitShare = float64(d.CountTwoQubit()) / float64(d.NumGates())
	}
	return b
}

// EstimateFidelity returns the product of per-gate success
// probabilities under the error model: (1-e1)^s · (1-e2)^t · (1-em)^m
// for s single-qubit gates, t two-qubit gates and m measurements.
// SWAPs are decomposed first. This is the standard first-order model
// behind the paper's fidelity objective (§III-B).
func EstimateFidelity(c *circuit.Circuit, em arch.ErrorModel) float64 {
	d := c.DecomposeSwaps()
	f := 1.0
	for _, g := range d.Gates() {
		switch {
		case g.Kind == circuit.KindMeasure:
			f *= 1 - em.MeasurementError
		case g.Kind == circuit.KindBarrier:
			// no physical operation
		case g.TwoQubit():
			f *= 1 - em.TwoQubitError
		default:
			f *= 1 - em.SingleQubitError
		}
	}
	return f
}

// EstimateDuration returns the critical-path execution time in
// nanoseconds under ASAP scheduling with per-kind gate durations.
func EstimateDuration(c *circuit.Circuit, em arch.ErrorModel) float64 {
	d := c.DecomposeSwaps()
	if d.NumQubits() == 0 {
		return 0
	}
	finish := make([]float64, d.NumQubits())
	var makespan float64
	for _, g := range d.Gates() {
		var dur float64
		switch {
		case g.Kind == circuit.KindBarrier:
			dur = 0
		case g.TwoQubit():
			dur = em.TwoQubitNanos
		default:
			dur = em.SingleQubitNanos
		}
		start := finish[g.Q0]
		if g.TwoQubit() && finish[g.Q1] > start {
			start = finish[g.Q1]
		}
		end := start + dur
		finish[g.Q0] = end
		if g.TwoQubit() {
			finish[g.Q1] = end
		}
		if end > makespan {
			makespan = end
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
