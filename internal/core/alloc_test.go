package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/mapping"
	"repro/internal/workloads"
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

// TestRecordStepZeroAllocs guards the op-log path over both DAG stores,
// the forward one and the reverse one that reads it backwards: once a
// record-mode traversal has grown the scratch (its log included) to
// full size, every step of a second traversal from the same start —
// drain, bridge or SWAP round, and their log appends — stays off the
// heap.
func TestRecordStepZeroAllocs(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	opts := DefaultOptions()
	opts.UseBridge = true // the bridge's log entry is on the path too
	fwd := NewPassRunner(bigRandomCX(20, 4000, 3), dev, opts)
	for _, pr := range []*PassRunner{fwd, fwd.reversed()} {
		init := mapping.Random(dev.NumQubits(), rand.New(rand.NewSource(1)))
		s := NewScratch()
		pr.traverse(init, rand.New(rand.NewSource(2)), s, emitRecord, nil)
		r := pr.newRouter(init, rand.New(rand.NewSource(2)), s, nil)
		r.emit = emitRecord
		allocs := testing.AllocsPerRun(200, func() {
			if !r.step() {
				t.Fatal("traversal ended inside the guard")
			}
		})
		if allocs != 0 {
			t.Fatalf("reverse=%v: record-mode step performs %v allocs, want 0", pr.reverse, allocs)
		}
	}
}

// allocatedBytes returns the fewest heap bytes f allocated over three
// runs (runtime.MemStats.TotalAlloc deltas): the least of a few runs
// shrugs off a stray allocation from another goroutine.
func allocatedBytes(f func()) uint64 {
	var least uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < least {
			least = d
		}
	}
	return least
}

// TestTrialBytesPerGate is the byte guard on the trial path: with a
// warm scratch, a whole trial (three traversals, the log copy and the
// depth replay) allocates at most 32 B per input gate. Copying a
// routed circuit per traversal, or DecomposeSwaps for the depth, costs
// over 500.
func TestTrialBytesPerGate(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	for _, name := range []string{"9symml_195", "rd84_253"} {
		b, _ := workloads.ByName(name)
		circ := b.Build()
		p, err := Prepare(circ, dev, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		s := NewScratch()
		if _, _, err := p.RunTrialCtx(context.Background(), 0, s); err != nil {
			t.Fatal(err)
		}
		bytes := allocatedBytes(func() {
			if _, _, err := p.RunTrialCtx(context.Background(), 0, s); err != nil {
				t.Fatal(err)
			}
		})
		perGate := float64(bytes) / float64(circ.NumGates())
		t.Logf("%s: %.1f B/gate per trial", name, perGate)
		if perGate > 32 {
			t.Errorf("%s: a warm trial allocates %.1f B per gate, want <= 32", name, perGate)
		}
	}
}

// TestPrepareBytesPerGate is the byte guard on Prepare: one pair table
// and the dependency table in both directions, 8 B per gate each, at
// most 32 B per gate. A CSR DAG of []int edges costs 56; copying the
// circuit to widen or reverse it costs over 200.
func TestPrepareBytesPerGate(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	for _, name := range []string{"9symml_195", "rd84_253"} {
		b, _ := workloads.ByName(name)
		circ := b.Build()
		var p *Prepared
		bytes := allocatedBytes(func() {
			var err error
			if p, err = Prepare(circ, dev, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		})
		runtime.KeepAlive(p)
		perGate := float64(bytes) / float64(circ.NumGates())
		t.Logf("%s: %.1f B/gate", name, perGate)
		if perGate > 32 {
			t.Errorf("%s: Prepare allocates %.1f B per gate, want <= 32", name, perGate)
		}
	}
}
