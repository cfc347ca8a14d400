package batch

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/route"
	"repro/internal/workloads"
)

// TestPipelinePanicBecomesError: a panic anywhere inside a job's
// pipeline run is recovered into a typed PanicError carrying the
// panicking goroutine's stack — the job fails, the engine (and its
// worker pool) keeps compiling.
func TestPipelinePanicBecomesError(t *testing.T) {
	faults.RegisterPanicRouter()
	eng := NewEngine(Config{Workers: 2})
	defer eng.Close()

	res := <-eng.SubmitContext(context.Background(), Job{
		Circuit: workloads.GHZ(6), Device: arch.IBMQ20Tokyo(), Route: "panic",
	})
	var pe *PanicError
	if !errors.As(res.Err, &pe) {
		t.Fatalf("panicking job error = %v (%T), want *PanicError", res.Err, res.Err)
	}
	if len(pe.Stack) == 0 || !strings.Contains(pe.Error(), "goroutine") {
		t.Fatalf("PanicError carries no stack: %v", pe)
	}
	if !strings.Contains(pe.Error(), "scripted router panic") {
		t.Fatalf("PanicError lost the panic value: %v", pe)
	}

	// The pool survived: an ordinary job still compiles.
	after := <-eng.SubmitContext(context.Background(), Job{
		Circuit: workloads.GHZ(6), Device: arch.IBMQ20Tokyo(),
	})
	if after.Err != nil {
		t.Fatalf("engine broken after panic: %v", after.Err)
	}
	// Panics, like errors, are never cached.
	again := <-eng.SubmitContext(context.Background(), Job{
		Circuit: workloads.GHZ(6), Device: arch.IBMQ20Tokyo(), Route: "panic",
	})
	if !errors.As(again.Err, &pe) {
		t.Fatalf("second panicking job = %v, want *PanicError", again.Err)
	}
}

// trialPanicRoute names trialPanicRouter in the router registry.
const trialPanicRoute = "panic-trial"

// trialPanicRouter routes through core.TrialRunner with a trial that
// panics on a pool worker, not on the caller's goroutine.
type trialPanicRouter struct{}

func (trialPanicRouter) Name() string { return trialPanicRoute }

func (trialPanicRouter) Route(ctx context.Context, c *circuit.Circuit, dev *arch.Device, opts core.Options) (*core.Result, error) {
	return core.TrialRunner{Trials: 4, Workers: 2}.Run(ctx, func(_ context.Context, trial int, _ *core.Scratch) (*core.Result, int, error) {
		if trial == 1 {
			panic("scripted trial panic")
		}
		return &core.Result{}, 0, nil
	})
}

var trialPanicOnce sync.Once

// TestTrialPanicBecomesError: a panic inside a trial, on one of the
// runner's worker goroutines, reaches the engine as the job's
// PanicError with the trial and the worker's stack, and the engine
// keeps compiling.
func TestTrialPanicBecomesError(t *testing.T) {
	trialPanicOnce.Do(func() {
		route.Register(trialPanicRoute, func() core.Router { return trialPanicRouter{} })
	})
	eng := NewEngine(Config{Workers: 2})
	defer eng.Close()

	res := <-eng.SubmitContext(context.Background(), Job{
		Circuit: workloads.GHZ(6), Device: arch.IBMQ20Tokyo(), Route: trialPanicRoute,
	})
	var pe *PanicError
	if !errors.As(res.Err, &pe) {
		t.Fatalf("job error = %v (%T), want *PanicError", res.Err, res.Err)
	}
	if msg := pe.Error(); !strings.Contains(msg, "core: trial 1 panic: scripted trial panic") || !strings.Contains(msg, "(*trialPool).work") {
		t.Fatalf("PanicError lost the trial or the worker's stack: %v", pe)
	}
	after := <-eng.SubmitContext(context.Background(), Job{
		Circuit: workloads.GHZ(6), Device: arch.IBMQ20Tokyo(),
	})
	if after.Err != nil {
		t.Fatalf("engine broken after a trial panic: %v", after.Err)
	}
}
