package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/mapping"
	"repro/internal/workloads"
)

// TestGateEpochOverflowReset pins the epoch-overflow contract of the
// gate-mark buffer: when the int32 epoch wraps, every mark is zeroed —
// across the buffer's full capacity, not just the slice a smaller
// circuit is currently using — and the epoch restarts at 1, so no
// stale mark can ever equal a live epoch again. (The edge-candidate
// buffer once had its own epoch scheme; it was superseded by the
// consume-to-zero bitset, leaving the gate marks as the only
// epoch-stamped state.)
func TestGateEpochOverflowReset(t *testing.T) {
	s := NewScratch()
	s.reset(4, 8, 4)
	// Stamp every mark, including what will become the hidden tail
	// after shrinking to a 4-gate circuit.
	full := s.gateMark[:cap(s.gateMark)]
	for i := range full {
		full[i] = math.MaxInt32
	}
	s.reset(4, 4, 4)
	s.gateEpoch = math.MaxInt32

	if e := s.nextGateEpoch(); e != 1 {
		t.Fatalf("epoch after overflow = %d, want 1", e)
	}
	if s.gateEpoch != 1 {
		t.Fatalf("stored epoch after overflow = %d, want 1", s.gateEpoch)
	}
	for i, m := range s.gateMark[:cap(s.gateMark)] {
		if m != 0 {
			t.Fatalf("gateMark[%d] = %d after overflow, want 0 (stale marks in the hidden tail would corrupt a later, larger circuit)", i, m)
		}
	}
	// The next epoch is 2: strictly above every (zeroed) mark.
	if e := s.nextGateEpoch(); e != 2 {
		t.Fatalf("epoch after reset advances to %d, want 2", e)
	}
}

// TestEpochWrapMidRouting routes a real circuit with the epoch one
// step from overflow and checks the result is byte-identical to a
// fresh scratch: the wrap must be invisible to the search.
func TestEpochWrapMidRouting(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(10)
	p, err := Prepare(circ, dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	init := mapping.Identity(dev.NumQubits())
	fresh, err := p.Traverse(context.Background(), init, rand.New(rand.NewSource(7)), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Keep()

	s := NewScratch()
	s.reset(dev.NumQubits(), circ.NumGates(), len(dev.Edges()))
	s.gateEpoch = math.MaxInt32 - 1
	wrapped, err := p.Traverse(context.Background(), init, rand.New(rand.NewSource(7)), s)
	if err != nil {
		t.Fatal(err)
	}
	got := wrapped.Keep()
	if got.SwapCount != want.SwapCount || !slices.Equal(got.pending.ops, want.pending.ops) {
		t.Fatalf("epoch wrap changed the route: fresh %d swaps/%d ops, wrapped %d swaps/%d ops",
			want.SwapCount, len(want.pending.ops), got.SwapCount, len(got.pending.ops))
	}
}

// TestCandWordsAllZeroAcrossDevices pins the candidate bitset's
// consume-to-zero invariant across a device downsize: after routing on
// a multi-word device (Grid(8,8): 112 edges, two words), every word —
// across the buffer's full capacity — is zero, so a later, smaller
// device (one word) starts clean with no epoch bookkeeping at all.
func TestCandWordsAllZeroAcrossDevices(t *testing.T) {
	s := NewScratch()
	big := arch.Grid(8, 8)
	if got := (len(big.Edges()) + 63) / 64; got < 2 {
		t.Fatalf("Grid(8,8) spans %d candidate words, need ≥2 for this test", got)
	}
	newPrepared(workloads.QFT(12), big, DefaultOptions()).traverse(mapping.Identity(big.NumQubits()), rand.New(rand.NewSource(3)), s, false, emitDiscard, nil)
	for i, w := range s.candWords[:cap(s.candWords)] {
		if w != 0 {
			t.Fatalf("candWords[%d] = %#x after traversal, want 0 (consume-to-zero invariant)", i, w)
		}
	}

	small := arch.IBMQ20Tokyo()
	p := newPrepared(workloads.QFT(8), small, DefaultOptions())
	res := p.traverse(mapping.Identity(small.NumQubits()), rand.New(rand.NewSource(3)), s, false, emitDiscard, nil)
	ref := p.traverse(mapping.Identity(small.NumQubits()), rand.New(rand.NewSource(3)), nil, false, emitDiscard, nil)
	if res.swaps != ref.swaps {
		t.Fatalf("reused scratch altered routing on the smaller device: %d swaps vs %d", res.swaps, ref.swaps)
	}
}
