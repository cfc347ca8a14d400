package verify

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/workloads"
)

func TestIdentityLinear(t *testing.T) {
	lf := NewIdentityLinear(70) // spans two words
	for i := 0; i < 70; i++ {
		for j := 0; j < 70; j++ {
			if lf.Bit(i, j) != (i == j) {
				t.Fatalf("identity bit (%d,%d) wrong", i, j)
			}
		}
	}
}

func TestApplyCNOT(t *testing.T) {
	lf := NewIdentityLinear(3)
	lf.ApplyCNOT(0, 2) // out2 = x2 ^ x0
	if !lf.Bit(2, 0) || !lf.Bit(2, 2) || lf.Bit(2, 1) {
		t.Fatalf("CNOT row wrong:\n%v", lf)
	}
	lf.ApplyCNOT(0, 2) // CNOT self-inverse
	if !lf.Equal(NewIdentityLinear(3)) {
		t.Fatal("CNOT twice != identity")
	}
}

func TestApplySwap(t *testing.T) {
	lf := NewIdentityLinear(3)
	lf.ApplySwap(0, 2)
	if !lf.Bit(0, 2) || !lf.Bit(2, 0) || lf.Bit(0, 0) {
		t.Fatal("swap rows wrong")
	}
}

func TestSwapEqualsThreeCNOTsGF2(t *testing.T) {
	a := NewIdentityLinear(4)
	a.ApplySwap(1, 3)
	b := NewIdentityLinear(4)
	b.ApplyCNOT(1, 3)
	b.ApplyCNOT(3, 1)
	b.ApplyCNOT(1, 3)
	if !a.Equal(b) {
		t.Fatal("SWAP != 3 CNOTs over GF(2)")
	}
}

func TestFromCircuitRejectsNonlinear(t *testing.T) {
	c := circuit.New(2)
	c.Append(circuit.G1(circuit.KindH, 0))
	if _, err := FromCircuit(c); err == nil {
		t.Fatal("H accepted as linear")
	}
	c2 := circuit.New(2)
	c2.Append(circuit.G1(circuit.KindBarrier, 0), circuit.G1(circuit.KindMeasure, 1), circuit.CX(0, 1))
	if _, err := FromCircuit(c2); err != nil {
		t.Fatalf("barrier/measure rejected: %v", err)
	}
}

func TestCheckRoutedIdentityLayouts(t *testing.T) {
	c := circuit.New(3)
	c.Append(circuit.CX(0, 1), circuit.CX(1, 2))
	id := []int{0, 1, 2}
	if err := CheckRouted(c, c.Clone(), id, id); err != nil {
		t.Fatalf("identical circuits flagged: %v", err)
	}
}

func TestCheckRoutedWithSwap(t *testing.T) {
	// Original: CX(0,1). Routed on a line where 0 and 1 start far:
	// initial layout q0->0, q1->2; SWAP(2,1) brings q1 to wire 1, then
	// CX(0,1). Final layout: q0->0, q1->1, q2->2.
	orig := circuit.New(3)
	orig.Append(circuit.CX(0, 1))
	routed := circuit.New(3)
	routed.Append(circuit.Swap(2, 1), circuit.CX(0, 1))
	init := []int{0, 2, 1} // q0->0, q1->2, q2->1
	final := []int{0, 1, 2}
	if err := CheckRouted(orig, routed, init, final); err != nil {
		t.Fatalf("valid routing rejected: %v", err)
	}
	// Wrong final layout must be rejected.
	if err := CheckRouted(orig, routed, init, init); err == nil {
		t.Fatal("wrong final layout accepted")
	}
}

func TestCheckRoutedDetectsWrongGate(t *testing.T) {
	orig := circuit.New(2)
	orig.Append(circuit.CX(0, 1))
	routed := circuit.New(2)
	routed.Append(circuit.CX(1, 0)) // reversed direction: different function
	id := []int{0, 1}
	if err := CheckRouted(orig, routed, id, id); err == nil {
		t.Fatal("wrong routed circuit accepted")
	}
}

func TestCheckRoutedWidening(t *testing.T) {
	orig := circuit.New(2)
	orig.Append(circuit.CX(0, 1))
	routed := circuit.New(4)
	routed.Append(circuit.CX(2, 3))
	init := []int{2, 3, 0, 1} // q0->2, q1->3
	final := []int{2, 3, 0, 1}
	if err := CheckRouted(orig, routed, init, final); err != nil {
		t.Fatalf("widened routing rejected: %v", err)
	}
}

// Property: a random CNOT circuit conjugated by random layouts via
// explicit SWAP networks verifies, and corrupting one gate breaks it.
func TestCheckRoutedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		orig := circuit.New(n)
		for i := 0; i < 15; i++ {
			a, b := twoDistinct(rng, n)
			orig.Append(circuit.CX(a, b))
		}
		// "Route" trivially: identity layouts plus interleaved SWAP pairs
		// that cancel (swap applied twice).
		routed := circuit.New(n)
		for _, g := range orig.Gates() {
			a, b := twoDistinct(rng, n)
			routed.Append(circuit.Swap(a, b), circuit.Swap(a, b), g)
		}
		id := make([]int, n)
		for i := range id {
			id[i] = i
		}
		if CheckRouted(orig, routed, id, id) != nil {
			return false
		}
		// Corrupt: drop last gate (a CX) — must fail.
		bad := circuit.New(n)
		gs := routed.Gates()
		bad.Append(gs[:len(gs)-1]...)
		return CheckRouted(orig, bad, id, id) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: GF(2) checker and state-vector checker agree on random
// routed instances.
func TestGF2AgreesWithSimulator(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		orig := circuit.New(n)
		for i := 0; i < 10; i++ {
			a, b := twoDistinct(rng, n)
			orig.Append(circuit.CX(a, b))
		}
		// Build a routed version: random initial layout realized by
		// relabelling gates, with tracking of the layout through random
		// inserted SWAPs.
		l2p := rng.Perm(n)
		cur := append([]int(nil), l2p...)
		routed := circuit.New(n)
		for _, g := range orig.Gates() {
			if rng.Intn(2) == 0 {
				a, b := twoDistinct(rng, n)
				routed.Append(circuit.Swap(a, b))
				// Track: physical wires a,b exchange logical contents.
				for q := range cur {
					if cur[q] == a {
						cur[q] = b
					} else if cur[q] == b {
						cur[q] = a
					}
				}
			}
			routed.Append(circuit.CX(cur[g.Q0], cur[g.Q1]))
		}
		gf2 := CheckRouted(orig, routed, l2p, cur) == nil
		simOK := EquivalentStates(orig, routed, l2p, cur, 2, rng) == nil
		return gf2 == simOK && gf2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalentStatesCatchesNonlinearDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	orig := circuit.New(2)
	orig.Append(circuit.G1(circuit.KindH, 0), circuit.CX(0, 1))
	// Equivalent routed version with explicit SWAP and relabelled gates.
	routed := circuit.New(2)
	routed.Append(circuit.Swap(0, 1), circuit.G1(circuit.KindH, 1), circuit.CX(1, 0))
	init := []int{1, 0} // q0->1 after... initial layout q0->1, q1->0; swap makes q0->0
	// After Swap(0,1): q0 on wire... track: init q0@1,q1@0; swap exchanges
	// wires 0,1 so q0@0, q1@1. Then H on wire 1 = H on q1? Original has H
	// on q0. So this should FAIL.
	if err := EquivalentStates(orig, routed, init, []int{0, 1}, 3, rng); err == nil {
		t.Fatal("wrong circuit accepted")
	}
	// Correct version: H on wire 0 (which hosts q0 after the swap).
	routed2 := circuit.New(2)
	routed2.Append(circuit.Swap(0, 1), circuit.G1(circuit.KindH, 0), circuit.CX(0, 1))
	if err := EquivalentStates(orig, routed2, init, []int{0, 1}, 3, rng); err != nil {
		t.Fatalf("correct circuit rejected: %v", err)
	}
}

// Property: row/column permutation round-trips.
func TestPermutationProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		lf := NewIdentityLinear(n)
		for i := 0; i < 20; i++ {
			a, b := twoDistinct(rng, n)
			lf.ApplyCNOT(a, b)
		}
		perm := rng.Perm(n)
		inv := make([]int, n)
		for i, p := range perm {
			inv[p] = i
		}
		// PermuteRows then inverse-permute restores the original.
		if !lf.PermuteRows(perm).PermuteRows(inv).Equal(lf) {
			return false
		}
		// Identity permutation is a no-op for both.
		id := make([]int, n)
		for i := range id {
			id[i] = i
		}
		return lf.PermuteRows(id).Equal(lf) && lf.PermuteCols(id).Equal(lf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearFunctionClone(t *testing.T) {
	lf := NewIdentityLinear(3)
	c := lf.Clone()
	c.ApplyCNOT(0, 1)
	if !lf.Equal(NewIdentityLinear(3)) {
		t.Fatal("Clone shares storage")
	}
	if lf.String() == "" || lf.N() != 3 {
		t.Fatal("accessors broken")
	}
}

func TestHardwareCompliant(t *testing.T) {
	c := circuit.New(3)
	c.Append(circuit.CX(0, 1), circuit.G1(circuit.KindH, 2), circuit.CX(0, 2))
	line := func(a, b int) bool { d := a - b; return d == 1 || d == -1 }
	if err := HardwareCompliant(c, line); err == nil {
		t.Fatal("CX(0,2) on a line accepted")
	}
	c2 := circuit.New(3)
	c2.Append(circuit.CX(0, 1), circuit.CX(2, 1))
	if err := HardwareCompliant(c2, line); err != nil {
		t.Fatalf("compliant circuit rejected: %v", err)
	}
}

// TestHardwareCompliantMatchesDecomposed: checking a SWAP's pair in
// both directions in place gives the verdict of checking its 3-CX
// decomposition, for any connectivity predicate, directed ones
// included. Random short circuits with SWAPs under random directed
// predicates reach both verdicts; every Table II row routed onto IBM
// Q20 Tokyo is checked under the device's predicate and under that
// predicate with one direction of one used coupler removed.
func TestHardwareCompliantMatchesDecomposed(t *testing.T) {
	same := func(c *circuit.Circuit, connected func(a, b int) bool) bool {
		t.Helper()
		got, want := HardwareCompliant(c, connected), HardwareCompliant(c.DecomposeSwaps(), connected)
		if (got == nil) != (want == nil) {
			t.Fatalf("in place: %v; decomposed: %v", got, want)
		}
		return got == nil
	}

	rng := rand.New(rand.NewSource(3))
	verdicts := map[bool]int{}
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(5)
		coupled := make([]bool, n*n)
		for i := range coupled {
			coupled[i] = rng.Intn(5) != 0
		}
		c := circuit.New(n)
		for i := rng.Intn(6); i > 0; i-- {
			a, b := rng.Intn(n), rng.Intn(n-1)
			if b >= a {
				b++
			}
			switch rng.Intn(3) {
			case 0:
				c.Append(circuit.Swap(a, b))
			case 1:
				c.Append(circuit.CX(a, b))
			default:
				c.Append(circuit.G1(circuit.KindH, a))
			}
		}
		verdicts[same(c, func(a, b int) bool { return coupled[a*n+b] })]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("random cases reached only one verdict: %v", verdicts)
	}

	dev := arch.IBMQ20Tokyo()
	opts := core.DefaultOptions()
	opts.Trials, opts.Traversals = 1, 1
	for _, b := range workloads.All() {
		res, err := core.Compile(b.Build(), dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !same(res.Circuit, dev.Connected) {
			t.Fatalf("%s: routed output not compliant", b.Name)
		}
		var cut arch.Edge
		for _, g := range res.Circuit.Gates() {
			if g.Kind == circuit.KindSwap {
				cut = arch.Edge{A: g.Q1, B: g.Q0}
				break
			}
		}
		same(res.Circuit, func(a, b int) bool { return (a != cut.A || b != cut.B) && dev.Connected(a, b) })
	}
}

func TestEquivalentStatesTooWide(t *testing.T) {
	c := circuit.New(MaxSimQubits + 1)
	if err := EquivalentStates(c, c, nil, nil, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("oversized simulation accepted")
	}
}

func twoDistinct(rng *rand.Rand, n int) (int, int) {
	a := rng.Intn(n)
	b := rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}
