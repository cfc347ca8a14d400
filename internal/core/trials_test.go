package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestTrialRunnerPanicFence drives the pool at 3 workers with a trial
// that panics on trial 2 of 8 while trials 0 and 1 are still running
// on the other workers. The panic must reach the caller only after
// every worker has returned, carrying the trial index and the stack of
// the worker that ran it, and no trial may start after it.
func TestTrialRunnerPanicFence(t *testing.T) {
	before := runtime.NumGoroutine()
	var inFlight, started atomic.Int32
	panicked := make(chan struct{})
	fn := func(_ context.Context, trial int, _ *Scratch) (*Result, int, error) {
		started.Add(1)
		inFlight.Add(1)
		defer inFlight.Add(-1)
		if trial == 2 {
			close(panicked)
			panic("scripted trial panic")
		}
		// Trials 0 and 1 hold their workers until trial 2 has
		// panicked, then work on briefly, so a runner that re-raised
		// without waiting would find them in flight.
		<-panicked
		time.Sleep(20 * time.Millisecond)
		return &Result{}, 0, nil
	}

	var got any
	func() {
		defer func() {
			got = recover()
			if n := inFlight.Load(); n != 0 {
				t.Errorf("panic re-raised with %d trials still running", n)
			}
		}()
		_, _ = TrialRunner{Trials: 8, Workers: 3}.Run(context.Background(), fn)
	}()
	msg, ok := got.(string)
	if !ok {
		t.Fatalf("recovered %T %v, want the recorded panic string", got, got)
	}
	if !strings.Contains(msg, "core: trial 2 panic: scripted trial panic") {
		t.Errorf("panic value does not name trial 2: %q", firstLine(msg))
	}
	if !strings.Contains(msg, "(*trialPool).work") || strings.Contains(msg, "testing.tRunner") {
		t.Errorf("panic value does not carry the worker's stack:\n%s", msg)
	}
	if n := started.Load(); n != 3 {
		t.Errorf("%d trials started, want 3: none may start after the panic", n)
	}
	// The workers have returned; let their goroutines finish exiting.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

// TestTrialRunnerTrialError: a trial's own error fails the run with the
// lowest failed trial's error, at any worker count, unless the
// adaptive stop point falls below that trial.
func TestTrialRunnerTrialError(t *testing.T) {
	fn := func(_ context.Context, trial int, _ *Scratch) (*Result, int, error) {
		if trial >= 5 {
			return nil, 0, fmt.Errorf("trial %d failed", trial)
		}
		// Trial 0 is the best; trials 1.. never improve on it.
		return &Result{AddedGates: min(trial, 1)}, 0, nil
	}
	for _, workers := range []int{1, 2, 4} {
		_, err := TrialRunner{Trials: 8, Workers: workers}.Run(context.Background(), fn)
		if err == nil || err.Error() != "trial 5 failed" {
			t.Errorf("workers=%d: err = %v, want trial 5's error", workers, err)
		}
		best, err := TrialRunner{Trials: 8, Workers: workers, Patience: 2}.Run(context.Background(), fn)
		if err != nil || best.TrialsRun != 3 {
			t.Errorf("workers=%d patience=2: err = %v, want a 3-trial population", workers, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (TrialRunner{Trials: 8, Workers: 2}).Run(ctx, fn); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run: err = %v, want context.Canceled", err)
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
