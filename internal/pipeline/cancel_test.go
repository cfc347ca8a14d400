package pipeline

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/mapping"
)

// cxStorm builds a CX-heavy random circuit big enough that trials are
// reliably in flight when the cancel lands.
func cxStorm(n, gates int, seed int64) *circuit.Circuit {
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

// TestTrialRunnerCancelMidRun is the regression test for the
// cancelled-trial completion bug: a worker whose RunTrialCtx was
// cancelled leaves results[trial] nil, and reporting that trial as
// completed made the prefix watcher dereference the nil result
// (panic: core.BetterTrial on a nil *Result). The runner must instead
// return ctx.Err() cleanly — this test panicked deterministically
// before the fix. Patience > 0 keeps the adaptive watcher active;
// the plain watcher path is covered by the same cancel.
func TestTrialRunnerCancelMidRun(t *testing.T) {
	circ := cxStorm(20, 6000, 3)
	dev := arch.IBMQ20Tokyo()
	opts := core.DefaultOptions()

	for _, patience := range []int{0, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		tr := core.TrialRunner{Trials: 8, Workers: 2, Patience: patience}
		done := make(chan error, 1)
		go func() {
			_, err := tr.Route(ctx, circ, dev, opts)
			done <- err
		}()
		time.Sleep(5 * time.Millisecond) // let trials get in flight
		cancel()
		select {
		case err := <-done:
			if err != context.Canceled {
				t.Fatalf("patience=%d: err = %v, want context.Canceled", patience, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("patience=%d: cancelled run never returned", patience)
		}
	}
}

// TestLayoutThenRouteHonorsCancellation: the layout pass and the route
// pass's fixed-layout branch (core.InitialMapping and
// core.CompileWithLayout) run on the pipeline's context, so a
// cancelled run stops inside them instead of routing to the end.
func TestLayoutThenRouteHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pc := &Ctx{Circuit: cxStorm(20, 6000, 3), Device: arch.IBMQ20Tokyo(), Options: core.DefaultOptions(), ctx: ctx}
	if err := (LayoutPass{}).Run(pc); err != context.Canceled {
		t.Fatalf("layout: err = %v, want context.Canceled", err)
	}
	if pc.Layout.Size() != 0 {
		t.Fatal("a cancelled layout pass set a layout")
	}
	pc.Layout = mapping.Identity(20)
	if err := (RoutePass{}).Run(pc); err != context.Canceled {
		t.Fatalf("route from a layout: err = %v, want context.Canceled", err)
	}
	if pc.Result != nil {
		t.Fatal("a cancelled route pass set a result")
	}
}
