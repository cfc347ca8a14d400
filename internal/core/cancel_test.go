package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/mapping"
)

// bigRandomCX builds a CX-heavy random circuit — large enough that a
// full trial takes many SWAP rounds, so the tests below can observe
// the difference between round-granular and trial-granular
// cancellation.
func bigRandomCX(n, gates int, seed int64) *circuit.Circuit {
	c := circuit.New(n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < gates; i++ {
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		c.Append(circuit.CX(a, b))
	}
	return c
}

// TestTraverseCancelledBeforeStart: a pre-cancelled context kills the
// traversal at its first round; no partial traversal escapes.
func TestTraverseCancelledBeforeStart(t *testing.T) {
	dev := arch.Grid(4, 5)
	p, err := Prepare(bigRandomCX(20, 10_000, 7), dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	tr, err := p.Traverse(ctx, mapping.Identity(20), rand.New(rand.NewSource(1)), nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tr.r != nil {
		t.Fatal("cancelled traversal leaked a partial traversal")
	}
}

// TestTrialCancellationRoundGranularity is the intra-trial-cancellation
// regression test: a 10k-gate single trial on a sparse device takes a
// long sequence of SWAP rounds (hundreds of milliseconds), but once
// cancelled mid-flight it must return within one round — microseconds,
// asserted here with a generous CI-safe bound that a trial-boundary-
// only check (which would first finish the whole traversal) cannot
// meet.
func TestTrialCancellationRoundGranularity(t *testing.T) {
	dev := arch.Grid(4, 5)
	circ := bigRandomCX(20, 10_000, 7)
	p, err := Prepare(circ, dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Calibrate: one uncancelled trial, to prove the workload is slow
	// enough for the race below to be meaningful.
	start := time.Now()
	if res, _, err := p.RunTrialCtx(context.Background(), 0, nil); err != nil || res == nil {
		t.Fatalf("uncancelled trial failed: %v", err)
	}
	full := time.Since(start)
	if full < 20*time.Millisecond {
		t.Skipf("workload too fast (%v) to observe mid-trial cancellation", full)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := p.RunTrialCtx(ctx, 0, nil)
		done <- err
	}()
	time.Sleep(full / 4) // let the trial get well into its SWAP loop
	cancel()
	cancelled := time.Now()

	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled trial never returned")
	}
	// One SWAP round on this workload is microseconds; even a heavily
	// loaded CI machine finishes the in-flight round well inside this
	// bound, while completing the remaining ~3/4 of the traversal (plus
	// two more traversals of the trial) would blow far past it.
	if lag := time.Since(cancelled); lag > full/2+50*time.Millisecond {
		t.Fatalf("cancelled trial took %v to stop (full trial %v); cancellation is not round-granular", lag, full)
	}
}
