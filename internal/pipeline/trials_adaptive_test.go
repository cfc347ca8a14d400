package pipeline

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workloads"
)

func adaptiveOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Seed = 11
	return opts
}

// TestAdaptiveDeterministicAtAnyWorkerCount is the load-bearing
// property: the early-exit population and the selected winner are pure
// functions of the per-trial results, never of scheduling.
func TestAdaptiveDeterministicAtAnyWorkerCount(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(8)
	opts := adaptiveOptions()

	ref, err := core.TrialRunner{Trials: 16, Patience: 3, Workers: 1}.Route(context.Background(), circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.TrialsRun >= 16 {
		t.Logf("adaptive rule never fired (TrialsRun = %d); property still checked", ref.TrialsRun)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := core.TrialRunner{Trials: 16, Patience: 3, Workers: workers}.Route(context.Background(), circ, dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.TrialsRun != ref.TrialsRun {
			t.Fatalf("workers=%d: TrialsRun %d != %d", workers, got.TrialsRun, ref.TrialsRun)
		}
		if !got.Circuit.Equal(ref.Circuit) {
			t.Fatalf("workers=%d: selected a different circuit", workers)
		}
		if got.AddedGates != ref.AddedGates {
			t.Fatalf("workers=%d: AddedGates %d != %d", workers, got.AddedGates, ref.AddedGates)
		}
	}
}

// TestAdaptiveMatchesExhaustivePrefix asserts the acceptance property:
// adaptive selection never picks a different winner than exhaustive
// selection over the same completed prefix.
func TestAdaptiveMatchesExhaustivePrefix(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(7)
	opts := adaptiveOptions()

	aResults, aDepths, err := population(context.Background(), core.TrialRunner{Trials: 20, Patience: 2, Workers: 4}, circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	pop := len(aResults)
	if pop == 0 || pop > 20 {
		t.Fatalf("adaptive population = %d", pop)
	}
	adaptiveBest, err := core.SelectBest(aResults, aDepths)
	if err != nil {
		t.Fatal(err)
	}

	eResults, eDepths, err := population(context.Background(), core.TrialRunner{Trials: 20, Workers: 4}, circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	exhaustiveBest, err := core.SelectBest(eResults[:pop], eDepths[:pop])
	if err != nil {
		t.Fatal(err)
	}
	if !adaptiveBest.Circuit.Equal(exhaustiveBest.Circuit) {
		t.Fatal("adaptive winner differs from exhaustive selection over the same prefix")
	}
	// And the trial results themselves agree index by index: the same
	// seeds ran in both modes.
	for i := 0; i < pop; i++ {
		if aResults[i].AddedGates != eResults[i].AddedGates {
			t.Fatalf("trial %d: adaptive cost %d != exhaustive cost %d", i, aResults[i].AddedGates, eResults[i].AddedGates)
		}
	}
}

func TestAdaptiveReportsActualTrialCount(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(6)
	opts := adaptiveOptions()

	res, err := core.TrialRunner{Trials: 32, Patience: 1, Workers: 1}.Route(context.Background(), circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Patience 1 stops at the first non-improving trial; with 32 seeds
	// on a small circuit it is (deterministically) far below the cap.
	if res.TrialsRun >= 32 {
		t.Fatalf("TrialsRun = %d, expected early exit below the 32-trial cap", res.TrialsRun)
	}
	if res.TrialsRun < 2 {
		t.Fatalf("TrialsRun = %d, the rule needs at least two trials to fire", res.TrialsRun)
	}
}

// TestRunTrialsCancelMidFeed is the regression test for the nil-hole
// panic: cancelling while trials are still being fed must return a
// clean ctx.Err(), not panic on a partially-filled results slice.
func TestRunTrialsCancelMidFeed(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(16) // big enough that trials outlive the cancel
	opts := adaptiveOptions()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	// 512 trials on 2 workers keeps the feed loop alive for hundreds
	// of milliseconds, so the cancel always lands mid-feed even when a
	// loaded machine delays the timer goroutine.
	tr := core.TrialRunner{Trials: 512, Workers: 2}
	results, depths, err := population(ctx, tr, circ, dev, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results != nil || depths != nil {
		t.Fatalf("cancelled run returned partial slices (len %d, %d)", len(results), len(depths))
	}

	// The Route wrapper must surface the same clean error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := tr.Route(ctx2, circ, dev, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("Route err = %v, want context.Canceled", err)
	}
}

// TestAdaptivePassRuns exercises the Patience plumbing through
// RoutePass, with the trial count from Options.Trials, and asserts the
// population stays within it end to end.
func TestAdaptivePassRuns(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.GHZ(10)
	opts := adaptiveOptions()
	opts.Trials = 12
	pm := New(RoutePass{Patience: 2}, VerifyPass{})
	pc, err := pm.Compile(context.Background(), circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Result.TrialsRun < 1 || pc.Result.TrialsRun > 12 {
		t.Fatalf("TrialsRun = %d", pc.Result.TrialsRun)
	}
}
