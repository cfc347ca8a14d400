package sabre

import (
	"context"
	"strings"
	"testing"
)

// Facade tests for the router registry and adaptive trials, exercised
// the way a downstream user would.

func TestRouterRegistryExposed(t *testing.T) {
	names := RouterNames()
	for _, want := range []string{"sabre", "greedy", "astar", "anneal"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("RouterNames() = %v, missing %q", names, want)
		}
	}

	dev := IBMQ20Tokyo()
	circ := QFT(5)
	opts := DefaultOptions()
	opts.Trials = 2
	for _, name := range names {
		r, err := NewRouter(name)
		if err != nil {
			t.Fatalf("NewRouter(%q): %v", name, err)
		}
		res, err := r.Route(context.Background(), circ, dev, opts)
		if err != nil {
			t.Fatalf("%s.Route: %v", name, err)
		}
		if err := VerifyCompliant(res.Circuit, dev); err != nil {
			t.Fatalf("%s output not compliant: %v", name, err)
		}
	}

	if _, err := NewRouter("bogus"); err == nil || !strings.Contains(err.Error(), "anneal") {
		t.Fatalf("NewRouter(bogus) err = %v, want a listing of registered routers", err)
	}
}

func TestBuildPipelineWithRegistryRouters(t *testing.T) {
	dev := IBMQ20Tokyo()
	for _, stage := range []string{"route:anneal", "route:greedy"} {
		pm, err := BuildPipeline(stage, "verify")
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Trials = 2
		if _, err := pm.Compile(context.Background(), GHZ(8), dev, opts); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
}

func TestCompileAdaptive(t *testing.T) {
	dev := IBMQ20Tokyo()
	circ := QFT(7)
	opts := DefaultOptions()
	res, err := CompileAdaptive(context.Background(), circ, dev, opts, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrialsRun < 1 || res.TrialsRun > 16 {
		t.Fatalf("TrialsRun = %d", res.TrialsRun)
	}
	if err := VerifyCompliant(res.Circuit, dev); err != nil {
		t.Fatal(err)
	}
	// Adaptive never selects a worse result than exhaustive search over
	// the same prefix: re-running exhaustively with the population it
	// chose must reproduce the identical winner.
	exhaustive, err := CompileN(circ, dev, opts, res.TrialsRun)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Circuit.Equal(exhaustive.Circuit) {
		t.Fatal("adaptive winner differs from exhaustive best-of-TrialsRun")
	}
}
