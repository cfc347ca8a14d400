package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindTable(t *testing.T) {
	if KindCX.Arity() != 2 || KindH.Arity() != 1 {
		t.Fatal("arity table wrong")
	}
	if KindU3.NumParams() != 3 || KindU2.NumParams() != 2 || KindRZ.NumParams() != 1 || KindCX.NumParams() != 0 {
		t.Fatal("param table wrong")
	}
	if !KindSwap.TwoQubit() || KindMeasure.TwoQubit() {
		t.Fatal("two-qubit table wrong")
	}
	if KindCX.String() != "cx" || KindTdg.String() != "tdg" {
		t.Fatal("names wrong")
	}
}

func TestKindByName(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Fatalf("KindByName(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := KindByName("toffoli"); ok {
		t.Fatal("unknown name accepted")
	}
}

func TestGateConstructors(t *testing.T) {
	g := CX(1, 2)
	if g.Q0 != 1 || g.Q1 != 2 || !g.TwoQubit() {
		t.Fatal("CX constructor wrong")
	}
	h := G1(KindH, 3)
	if h.Q0 != 3 || h.Q1 != -1 || h.TwoQubit() {
		t.Fatal("G1 constructor wrong")
	}
	rz := G1(KindRZ, 0, 1.5)
	if len(rz.Params) != 1 || rz.Params[0] != 1.5 {
		t.Fatal("params wrong")
	}
}

func TestG1Panics(t *testing.T) {
	mustPanic(t, func() { G1(KindCX, 0) })
	mustPanic(t, func() { G1(KindRZ, 0) })     // missing param
	mustPanic(t, func() { G1(KindH, 0, 1.0) }) // extra param
}

func TestGateOnAndQubits(t *testing.T) {
	g := CX(1, 2)
	if !g.On(1) || !g.On(2) || g.On(0) {
		t.Fatal("On wrong")
	}
	if q := g.Qubits(); len(q) != 2 || q[0] != 1 || q[1] != 2 {
		t.Fatal("Qubits wrong")
	}
	h := G1(KindH, 4)
	if q := h.Qubits(); len(q) != 1 || q[0] != 4 {
		t.Fatal("single Qubits wrong")
	}
}

func TestGateRemap(t *testing.T) {
	g := CX(0, 1).Remap(func(q int) int { return q + 10 })
	if g.Q0 != 10 || g.Q1 != 11 {
		t.Fatal("Remap wrong")
	}
	s := G1(KindH, 2).Remap(func(q int) int { return 5 })
	if s.Q0 != 5 || s.Q1 != -1 {
		t.Fatal("Remap single wrong")
	}
}

func TestGateString(t *testing.T) {
	if got := CX(0, 1).String(); got != "cx q[0],q[1]" {
		t.Fatalf("got %q", got)
	}
	if got := G1(KindRZ, 2, 0.5).String(); got != "rz(0.5) q[2]" {
		t.Fatalf("got %q", got)
	}
}

func TestAppendValidation(t *testing.T) {
	c := New(2)
	mustPanic(t, func() { c.Append(CX(0, 2)) })
	mustPanic(t, func() { c.Append(CX(1, 1)) })
	mustPanic(t, func() { c.Append(G1(KindH, -1)) })
	c.Append(CX(0, 1), G1(KindH, 0))
	if c.NumGates() != 2 {
		t.Fatal("append failed")
	}
}

func TestDepth(t *testing.T) {
	// Fig. 3(c): six CNOTs on 4 qubits has depth 5.
	c := New(4)
	c.Append(CX(0, 1), CX(2, 3), CX(1, 3), CX(1, 2), CX(2, 3), CX(0, 3))
	if d := c.Depth(); d != 5 {
		t.Fatalf("Fig 3(c) depth = %d, want 5", d)
	}
	// Fig. 3(d): with the SWAP (as 3 gates...) — paper counts SWAP as
	// one step unit in its d=8 figure using decomposed gates; verify
	// our decomposed version grows depth.
	d2 := New(4)
	d2.Append(CX(0, 1), CX(2, 3), CX(1, 3), Swap(0, 1), CX(1, 2), CX(2, 3), CX(0, 3))
	if d2.DecomposeSwaps().Depth() != 8 {
		t.Fatalf("Fig 3(d) decomposed depth = %d, want 8", d2.DecomposeSwaps().Depth())
	}
	if New(3).Depth() != 0 {
		t.Fatal("empty circuit depth")
	}
	if New(0).Depth() != 0 {
		t.Fatal("zero-qubit circuit depth")
	}
}

func TestParallelGatesDepthOne(t *testing.T) {
	c := New(4)
	c.Append(CX(0, 1), CX(2, 3))
	if c.Depth() != 1 {
		t.Fatalf("disjoint CNOTs depth = %d", c.Depth())
	}
}

func TestReverse(t *testing.T) {
	c := New(3)
	c.Append(CX(0, 1), G1(KindH, 2), CX(1, 2))
	r := c.Reverse()
	if r.Gate(0).Kind != KindCX || r.Gate(0).Q0 != 1 || r.Gate(0).Q1 != 2 {
		t.Fatal("reverse order wrong")
	}
	if !r.Reverse().Equal(c) {
		t.Fatal("double reverse != original")
	}
}

// Property: reverse is an involution and preserves counts/depth.
func TestReverseProperties(t *testing.T) {
	f := func(seed int64) bool {
		c := randomCircuit(seed, 8, 60)
		r := c.Reverse()
		return r.Reverse().Equal(c) &&
			r.NumGates() == c.NumGates() &&
			r.CountTwoQubit() == c.CountTwoQubit() &&
			r.Depth() == c.Depth()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeSwaps(t *testing.T) {
	c := New(3)
	c.Append(Swap(0, 2), G1(KindH, 1))
	d := c.DecomposeSwaps()
	if d.NumGates() != 4 {
		t.Fatalf("got %d gates", d.NumGates())
	}
	want := []Gate{CX(0, 2), CX(2, 0), CX(0, 2)}
	for i, w := range want {
		if d.Gate(i).Kind != w.Kind || d.Gate(i).Q0 != w.Q0 || d.Gate(i).Q1 != w.Q1 {
			t.Fatalf("gate %d = %v, want %v", i, d.Gate(i), w)
		}
	}
	if c.NumGates() != 2 {
		t.Fatal("DecomposeSwaps mutated receiver")
	}
}

func TestInteractionPairs(t *testing.T) {
	c := New(4)
	c.Append(CX(0, 1), CX(1, 0), CX(2, 3), G1(KindH, 0))
	pairs := c.InteractionPairs()
	if pairs[[2]int{0, 1}] != 2 || pairs[[2]int{2, 3}] != 1 || len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestUsedQubitsAndWiden(t *testing.T) {
	c := New(5)
	c.Append(CX(0, 3))
	u := c.UsedQubits()
	if len(u) != 2 || u[0] != 0 || u[1] != 3 {
		t.Fatalf("used = %v", u)
	}
	w := c.Widen(8)
	if w.NumQubits() != 8 || w.NumGates() != 1 {
		t.Fatal("widen wrong")
	}
	mustPanic(t, func() { c.Widen(3) })
}

// TestWidenViewAppendsStayApart: Widen shares the gate slice, so an
// Append to the view or to the original must leave the other as it
// was. The original is given spare capacity first, the case where an
// unclipped view would write its appended gate into the original's
// next slot.
func TestWidenViewAppendsStayApart(t *testing.T) {
	c := NewNamed("base", 3)
	for i := 0; i < 5; i++ {
		c.Append(CX(0, 1))
	}
	if cap(c.Gates()) == c.NumGates() {
		t.Fatal("fixture needs spare capacity in the original")
	}
	w := c.Widen(6)
	if w.Name() != "base" || w.NumQubits() != 6 || c.NumQubits() != 3 {
		t.Fatalf("view is %q on %d qubits, original on %d", w.Name(), w.NumQubits(), c.NumQubits())
	}
	w.Append(CX(4, 5))
	if c.NumGates() != 5 {
		t.Fatalf("append to the view grew the original to %d gates", c.NumGates())
	}
	c.Append(G1(KindH, 2))
	if w.NumGates() != 6 || w.Gate(5).Kind != KindCX || w.Gate(5).Q0 != 4 {
		t.Fatalf("append to the original changed the view: %v", w.Gates())
	}
	if c.NumGates() != 6 || c.Gate(5).Kind != KindH {
		t.Fatalf("original lost its own append: %v", c.Gates())
	}
	for i := 0; i < 5; i++ {
		if g := w.Gate(i); g.Kind != KindCX || g.Q0 != 0 || g.Q1 != 1 {
			t.Fatalf("view gate %d = %v", i, g)
		}
	}
}

func TestCounts(t *testing.T) {
	c := New(3)
	c.Append(CX(0, 1), G1(KindH, 0), G1(KindH, 1), Swap(1, 2))
	if c.CountKind(KindH) != 2 || c.CountKind(KindCX) != 1 || c.CountTwoQubit() != 2 {
		t.Fatal("counts wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := New(2)
	c.Append(CX(0, 1))
	cl := c.Clone()
	cl.Append(CX(1, 0))
	if c.NumGates() != 1 {
		t.Fatal("clone shares gate storage")
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// randomCircuit builds a seeded random circuit used by property tests
// in this package.
func randomCircuit(seed int64, n, g int) *Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := New(n)
	for i := 0; i < g; i++ {
		if rng.Intn(2) == 0 {
			c.Append(G1(KindH, rng.Intn(n)))
		} else {
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			c.Append(CX(a, b))
		}
	}
	return c
}
