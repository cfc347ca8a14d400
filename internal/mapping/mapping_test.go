package mapping

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 20} {
		l := Identity(n)
		if l.Size() != n {
			t.Fatalf("Identity(%d).Size() = %d", n, l.Size())
		}
		for q := 0; q < n; q++ {
			if l.Phys(q) != q || l.Log(q) != q {
				t.Fatalf("Identity(%d): q=%d maps to (%d,%d)", n, q, l.Phys(q), l.Log(q))
			}
		}
		if !l.Valid() {
			t.Fatalf("Identity(%d) not valid", n)
		}
	}
}

func TestIdentityNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Identity(-1) did not panic")
		}
	}()
	Identity(-1)
}

func TestRandomIsBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		l := Random(n, rng)
		if !l.Valid() {
			t.Fatalf("Random(%d) invalid: %v", n, l)
		}
		seen := make(map[int]bool)
		for q := 0; q < n; q++ {
			p := l.Phys(q)
			if seen[p] {
				t.Fatalf("Random(%d): physical %d used twice", n, p)
			}
			seen[p] = true
			if l.Log(p) != q {
				t.Fatalf("Random(%d): inverse broken at q=%d", n, q)
			}
		}
	}
}

func TestFromLogicalToPhysical(t *testing.T) {
	l, err := FromLogicalToPhysical([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if l.Phys(0) != 2 || l.Phys(1) != 0 || l.Phys(2) != 1 {
		t.Fatalf("wrong layout: %v", l)
	}
	if l.Log(2) != 0 || l.Log(0) != 1 || l.Log(1) != 2 {
		t.Fatalf("wrong inverse: %v", l)
	}
}

func TestFromLogicalToPhysicalErrors(t *testing.T) {
	cases := [][]int{
		{0, 0},    // duplicate
		{1, 2},    // out of range
		{-1, 0},   // negative
		{0, 1, 1}, // duplicate
		{3, 0, 1}, // out of range
	}
	for _, c := range cases {
		if _, err := FromLogicalToPhysical(c); err == nil {
			t.Errorf("FromLogicalToPhysical(%v): expected error", c)
		}
	}
}

func TestSwapPhysical(t *testing.T) {
	l := Identity(4)
	l.SwapPhysical(0, 3)
	if l.Phys(0) != 3 || l.Phys(3) != 0 {
		t.Fatalf("after swap: %v", l)
	}
	if l.Log(0) != 3 || l.Log(3) != 0 {
		t.Fatalf("after swap inverse: %v", l)
	}
	if l.Phys(1) != 1 || l.Phys(2) != 2 {
		t.Fatalf("swap disturbed unrelated qubits: %v", l)
	}
	if !l.Valid() {
		t.Fatalf("layout invalid after swap")
	}
}

func TestSwapLogical(t *testing.T) {
	l := Identity(4)
	l.SwapPhysical(1, 2) // q1@Q2, q2@Q1
	l.SwapLogical(1, 2)  // undo via logical indices
	if !l.Equal(Identity(4)) {
		t.Fatalf("SwapLogical did not undo SwapPhysical: %v", l)
	}
}

// Property: SwapPhysical is an involution.
func TestSwapInvolutionProperty(t *testing.T) {
	f := func(seed int64, rawA, rawB uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		l := Random(n, rng)
		orig := l.Clone()
		a, b := int(rawA)%n, int(rawB)%n
		l.SwapPhysical(a, b)
		l.SwapPhysical(a, b)
		return l.Equal(orig) && l.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: any sequence of swaps keeps the layout a valid bijection.
func TestSwapSequencePreservesBijection(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		l := Random(n, rng)
		for i := 0; i < int(steps); i++ {
			l.SwapPhysical(rng.Intn(n), rng.Intn(n))
		}
		return l.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	l := Identity(3)
	c := l.Clone()
	c.SwapPhysical(0, 1)
	if l.Phys(0) != 0 {
		t.Fatal("Clone shares storage with original")
	}
}

// TestCopyIntoReusesStorage: CopyInto makes a deep copy, reuses the
// destination's storage once it has room, grows it when it has not,
// and leaves a layout copied onto itself unchanged.
func TestCopyIntoReusesStorage(t *testing.T) {
	src := Random(5, rand.New(rand.NewSource(1)))
	var dst Layout
	src.CopyInto(&dst) // grows the zero value
	if !dst.Equal(src) || !dst.Valid() {
		t.Fatalf("copy %v of %v", dst, src)
	}
	dst.SwapPhysical(0, 1)
	if dst.Equal(src) {
		t.Fatal("CopyInto shares storage with its source")
	}
	big := Identity(8)
	big.CopyInto(&dst)
	if !dst.Equal(big) {
		t.Fatalf("copy %v of the wider %v", dst, big)
	}
	if allocs := testing.AllocsPerRun(10, func() { src.CopyInto(&dst) }); allocs != 0 {
		t.Errorf("a copy into room allocates %v times, want 0", allocs)
	}
	if !dst.Equal(src) || !dst.Valid() {
		t.Fatalf("copy %v of the narrower %v", dst, src)
	}
	want := src.Clone()
	src.CopyInto(&src)
	if !src.Equal(want) || !src.Valid() {
		t.Fatalf("a layout copied onto itself became %v, want %v", src, want)
	}
}

func TestAccessorCopies(t *testing.T) {
	l := Identity(3)
	lp := l.LogicalToPhysical()
	lp[0] = 99
	if l.Phys(0) == 99 {
		t.Fatal("LogicalToPhysical returned internal slice")
	}
	pl := l.PhysicalToLogical()
	pl[0] = 99
	if l.Log(0) == 99 {
		t.Fatal("PhysicalToLogical returned internal slice")
	}
}

func TestKeyDistinguishesLayouts(t *testing.T) {
	a := Identity(5)
	b := Identity(5)
	b.SwapPhysical(3, 4)
	if a.Key() == b.Key() {
		t.Fatal("distinct layouts share a key")
	}
	c := Identity(5)
	if a.Key() != c.Key() {
		t.Fatal("equal layouts have different keys")
	}
}

func TestEqualDifferentSizes(t *testing.T) {
	if Identity(3).Equal(Identity(4)) {
		t.Fatal("layouts of different sizes reported equal")
	}
}

func TestStringFormat(t *testing.T) {
	l := Identity(2)
	if got, want := l.String(), "q0->Q0 q1->Q1"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
