package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/workloads"
)

func fig3Original() *circuit.Circuit {
	c := circuit.NewNamed("fig3", 4)
	c.Append(
		circuit.CX(0, 1), circuit.CX(2, 3), circuit.CX(1, 3),
		circuit.CX(1, 2), circuit.CX(2, 3), circuit.CX(0, 3),
	)
	return c
}

func fig3Routed() *circuit.Circuit {
	c := circuit.NewNamed("fig3-routed", 4)
	c.Append(
		circuit.CX(0, 1), circuit.CX(2, 3), circuit.CX(1, 3),
		circuit.Swap(0, 1),
		circuit.CX(1, 2), circuit.CX(2, 3), circuit.CX(0, 3),
	)
	return c
}

func TestMeasureFig3(t *testing.T) {
	r := Measure(fig3Original())
	if r.Gates != 6 || r.Depth != 5 || r.TwoQubitGates != 6 {
		t.Fatalf("fig3 original: %+v", r)
	}
}

// randomSwapCircuit returns a random circuit of SWAPs, CXs, barriers,
// measurements and rotations.
func randomSwapCircuit(rng *rand.Rand) *circuit.Circuit {
	n := 2 + rng.Intn(10)
	c := circuit.New(n)
	for i := rng.Intn(200); i > 0; i-- {
		a, b := rng.Intn(n), rng.Intn(n-1)
		if b >= a {
			b++
		}
		switch rng.Intn(5) {
		case 0:
			c.Append(circuit.Swap(a, b))
		case 1:
			c.Append(circuit.CX(a, b))
		case 2:
			c.Append(circuit.G1(circuit.KindBarrier, a))
		case 3:
			c.Append(circuit.G1(circuit.KindMeasure, a))
		default:
			c.Append(circuit.G1(circuit.KindRZ, a, 0.5))
		}
	}
	return c
}

// TestMeasureMatchesDecomposedCircuit: the one-pass count equals
// measuring the SWAP-decomposed copy.
func TestMeasureMatchesDecomposedCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		c := randomSwapCircuit(rng)
		d := c.DecomposeSwaps()
		r := Measure(c)
		if r.Gates != d.NumGates() || r.TwoQubitGates != d.CountTwoQubit() || r.Depth != d.Depth() {
			t.Fatalf("trial %d: Measure %+v, decomposed gates=%d two-qubit=%d depth=%d",
				trial, r, d.NumGates(), d.CountTwoQubit(), d.Depth())
		}
	}
}

// TestMeasureAllocs: Measure allocates only its per-qubit depth levels.
func TestMeasureAllocs(t *testing.T) {
	c := fig3Routed()
	if allocs := testing.AllocsPerRun(100, func() { _ = Measure(c) }); allocs != 1 {
		t.Fatalf("Measure: %v allocs, want 1", allocs)
	}
}

func TestCompareFig3(t *testing.T) {
	// Paper §III-A: gates 6 -> 9, depth 5 -> 8 after one SWAP.
	r := Compare(fig3Original(), fig3Routed())
	if r.RefGates != 6 || r.Gates != 9 || r.AddedGates != 3 {
		t.Fatalf("gate accounting: %+v", r)
	}
	if r.RefDepth != 5 || r.Depth != 8 {
		t.Fatalf("depth accounting: %+v", r)
	}
}

func TestEstimateFidelity(t *testing.T) {
	em := arch.Q20ErrorModel()
	c := circuit.New(2)
	c.Append(circuit.G1(circuit.KindH, 0), circuit.CX(0, 1), circuit.G1(circuit.KindMeasure, 0))
	want := (1 - em.SingleQubitError) * (1 - em.TwoQubitError) * (1 - em.MeasurementError)
	if got := EstimateFidelity(c, em); math.Abs(got-want) > 1e-12 {
		t.Fatalf("fidelity = %g, want %g", got, want)
	}
	// A SWAP costs 3 CNOTs of error.
	s := circuit.New(2)
	s.Append(circuit.Swap(0, 1))
	want = math.Pow(1-em.TwoQubitError, 3)
	if got := EstimateFidelity(s, em); math.Abs(got-want) > 1e-12 {
		t.Fatalf("swap fidelity = %g, want %g", got, want)
	}
	// Barrier is free.
	b := circuit.New(1)
	b.Append(circuit.G1(circuit.KindBarrier, 0))
	if EstimateFidelity(b, em) != 1 {
		t.Fatal("barrier should not cost fidelity")
	}
}

func TestFidelityMonotoneInGates(t *testing.T) {
	em := arch.Q20ErrorModel()
	short := fig3Original()
	long := fig3Routed()
	if EstimateFidelity(long, em) >= EstimateFidelity(short, em) {
		t.Fatal("more gates should mean lower fidelity")
	}
}

func TestEstimateDuration(t *testing.T) {
	em := arch.ErrorModel{SingleQubitNanos: 10, TwoQubitNanos: 100, T2Microseconds: 1}
	c := circuit.New(2)
	c.Append(circuit.G1(circuit.KindH, 0), circuit.G1(circuit.KindH, 1), circuit.CX(0, 1))
	// Both H in parallel (10ns) then CX (100ns).
	if got := EstimateDuration(c, em); got != 110 {
		t.Fatalf("duration = %g, want 110", got)
	}
	if EstimateDuration(circuit.New(0), em) != 0 {
		t.Fatal("empty circuit duration")
	}
}

func TestCoherenceBudget(t *testing.T) {
	em := arch.ErrorModel{SingleQubitNanos: 10, TwoQubitNanos: 100, T2Microseconds: 1} // 1000ns budget
	c := circuit.New(2)
	c.Append(circuit.CX(0, 1)) // 100ns
	if !CoherenceBudgetOK(c, em, 0.5) {
		t.Fatal("100ns should fit in 500ns")
	}
	for i := 0; i < 9; i++ {
		c.Append(circuit.CX(0, 1))
	}
	if CoherenceBudgetOK(c, em, 0.5) { // 1000ns > 500ns
		t.Fatal("1000ns should not fit in 500ns")
	}
}

func TestDecoherenceFactor(t *testing.T) {
	em := arch.ErrorModel{TwoQubitNanos: 1000, T2Microseconds: 1} // one gate = full T2
	c := circuit.New(2)
	c.Append(circuit.CX(0, 1))
	if got := DecoherenceFactor(c, em); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Fatalf("decoherence = %g", got)
	}
	if DecoherenceFactor(c, arch.ErrorModel{}) != 0 {
		t.Fatal("zero T2 should yield 0")
	}
}

func TestQubitUtilization(t *testing.T) {
	c := circuit.New(3)
	c.Append(circuit.CX(0, 1), circuit.G1(circuit.KindH, 0), circuit.Swap(1, 2))
	u := QubitUtilization(c)
	// Swap decomposes to 3 CX: q1 and q2 each get 3 touches.
	if u[0] != 2 || u[1] != 4 || u[2] != 3 {
		t.Fatalf("utilization %v", u)
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown(fig3Original(), fig3Routed())
	if b.OriginalGates != 6 || b.RoutedGates != 9 || b.AddedGates != 3 {
		t.Fatalf("breakdown %+v", b)
	}
	if b.AddedCNOTs != 3 || b.SwapsInserted != 1 {
		t.Fatalf("breakdown %+v", b)
	}
	if b.OverheadRatio != 1.5 || b.TwoQubitShare != 1 {
		t.Fatalf("breakdown %+v", b)
	}
}

func TestBreakdownEmpty(t *testing.T) {
	e := circuit.New(2)
	b := Breakdown(e, e)
	if b.OverheadRatio != 0 || b.TwoQubitShare != 0 {
		t.Fatalf("empty breakdown %+v", b)
	}
}

func TestReportString(t *testing.T) {
	r := Compare(fig3Original(), fig3Routed())
	if r.String() == "" {
		t.Fatal("empty report string")
	}
	m := Measure(fig3Original())
	if m.String() == "" {
		t.Fatal("empty measure string")
	}
}

// The DecomposeSwaps-based forms of the helpers that now count a SWAP
// as its 3 CX in place: the oracles TestInPlaceSwapCountsMatchDecomposed
// holds them to.

func qubitUtilizationDecomposed(c *circuit.Circuit) []int {
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

func breakdownDecomposed(orig, routed *circuit.Circuit) OverheadBreakdown {
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

func estimateFidelityDecomposed(c *circuit.Circuit, em arch.ErrorModel) float64 {
	f := 1.0
	for _, g := range c.DecomposeSwaps().Gates() {
		switch {
		case g.Kind == circuit.KindMeasure:
			f *= 1 - em.MeasurementError
		case g.Kind == circuit.KindBarrier:
		case g.TwoQubit():
			f *= 1 - em.TwoQubitError
		default:
			f *= 1 - em.SingleQubitError
		}
	}
	return f
}

func estimateDurationDecomposed(c *circuit.Circuit, em arch.ErrorModel) float64 {
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

// TestInPlaceSwapCountsMatchDecomposed holds Measure (whose depth is
// the anneal router's tie-break), QubitUtilization, Breakdown,
// EstimateFidelity and EstimateDuration, which count a SWAP as its 3
// CX without copying the circuit, to their DecomposeSwaps forms,
// exactly (floats included): on every Table II row routed onto IBM Q20
// Tokyo (one trial, one traversal), and on random circuits with SWAPs.
func TestInPlaceSwapCountsMatchDecomposed(t *testing.T) {
	em := arch.Q20ErrorModel()
	type pair struct {
		name         string
		orig, routed *circuit.Circuit
	}
	var pairs []pair
	dev := arch.IBMQ20Tokyo()
	opts := core.DefaultOptions()
	opts.Trials, opts.Traversals = 1, 1
	for _, b := range workloads.All() {
		orig := b.Build()
		res, err := core.Compile(orig, dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.SwapCount == 0 {
			t.Fatalf("%s: routed without SWAPs, so it checks nothing", b.Name)
		}
		pairs = append(pairs, pair{b.Name, orig, res.Circuit})
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		pairs = append(pairs, pair{"random", randomSwapCircuit(rng), randomSwapCircuit(rng)})
	}
	for _, p := range pairs {
		d := p.routed.DecomposeSwaps()
		if m := Measure(p.routed); m.Gates != d.NumGates() || m.TwoQubitGates != d.CountTwoQubit() || m.Depth != d.Depth() {
			t.Fatalf("%s: Measure %+v, decomposed gates=%d two-qubit=%d depth=%d",
				p.name, m, d.NumGates(), d.CountTwoQubit(), d.Depth())
		}
		if got, want := QubitUtilization(p.routed), qubitUtilizationDecomposed(p.routed); !slices.Equal(got, want) {
			t.Fatalf("%s: QubitUtilization %v, decomposed %v", p.name, got, want)
		}
		if got, want := Breakdown(p.orig, p.routed), breakdownDecomposed(p.orig, p.routed); got != want {
			t.Fatalf("%s: Breakdown %+v, decomposed %+v", p.name, got, want)
		}
		if got, want := EstimateFidelity(p.routed, em), estimateFidelityDecomposed(p.routed, em); got != want {
			t.Fatalf("%s: EstimateFidelity %v, decomposed %v", p.name, got, want)
		}
		if got, want := EstimateDuration(p.routed, em), estimateDurationDecomposed(p.routed, em); got != want {
			t.Fatalf("%s: EstimateDuration %v, decomposed %v", p.name, got, want)
		}
	}
}
