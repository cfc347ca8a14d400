package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/mapping"
	"repro/internal/workloads"
)

// oracleCase is one routing configuration the trial-output oracles
// sweep.
type oracleCase struct {
	name string
	circ *circuit.Circuit
	opts Options
}

// oracleCases returns every Table II row under default options, plus
// the configurations of the root golden suite's
// TestGoldenNoiseAndBridgeConfigs: float-weighted distances, coupler
// pruning, bridges and the two lighter heuristics.
func oracleCases() []oracleCase {
	var cases []oracleCase
	for _, b := range workloads.All() {
		cases = append(cases, oracleCase{b.Name, b.Build(), DefaultOptions()})
	}
	dev := arch.IBMQ20Tokyo()
	circ := workloads.RandomCircuit("golden", 14, 300, 0.6, 5)
	for _, tc := range []struct {
		name string
		mut  func(*Options)
	}{
		{"bridge", func(o *Options) { o.UseBridge = true }},
		{"noise", func(o *Options) {
			o.Noise = arch.RandomNoise(dev, 1e-3, 1e-1, rand.New(rand.NewSource(7)))
			o.MaxEdgeError = 0.05
		}},
		{"noise+bridge", func(o *Options) {
			o.Noise = arch.RandomNoise(dev, 1e-3, 1e-1, rand.New(rand.NewSource(11)))
			o.UseBridge = true
		}},
		{"basic", func(o *Options) { o.Heuristic = HeuristicBasic }},
		{"lookahead", func(o *Options) { o.Heuristic = HeuristicLookahead }},
	} {
		opts := DefaultOptions()
		tc.mut(&opts)
		cases = append(cases, oracleCase{tc.name, circ, opts})
	}
	return cases
}

// passResult is one traversal routed with every gate emitted
// (emitGates) and its circuit built from them: the reference the op-log
// path (Traverse, Keep and SelectBest's materialize) is checked
// against.
type passResult struct {
	Circuit       *circuit.Circuit
	InitialLayout mapping.Layout
	FinalLayout   mapping.Layout
	SwapCount     int
	BridgeCount   int
	Stats         PassStats
}

// run is the reference traversal: one pass of Algorithm 1 from init,
// backwards when reverse is set, that builds its routed circuit gate by
// gate (nil s allocates a private scratch). The input layout is not
// mutated.
func (p *Prepared) run(init mapping.Layout, rng *rand.Rand, s *Scratch, reverse bool) passResult {
	r := p.traverse(init, rng, s, reverse, emitGates, nil)
	out := circuit.NewNamed(p.circ.Name(), r.n)
	out.AppendTrusted(r.s.out...)
	return passResult{
		Circuit:       out,
		InitialLayout: init.Clone(),
		FinalLayout:   r.layout.Clone(),
		SwapCount:     r.swaps,
		BridgeCount:   r.bridges,
		Stats:         r.stats,
	}
}

// samePass fails unless got and want are the same traversal: equal
// gates, layouts, counts and stats.
func samePass(t *testing.T, label string, got, want passResult) {
	t.Helper()
	if !got.Circuit.Equal(want.Circuit) {
		t.Fatalf("%s: routed gates differ (%d vs %d)", label, got.Circuit.NumGates(), want.Circuit.NumGates())
	}
	if !got.InitialLayout.Equal(want.InitialLayout) || !got.FinalLayout.Equal(want.FinalLayout) {
		t.Fatalf("%s: layouts differ", label)
	}
	if got.SwapCount != want.SwapCount || got.BridgeCount != want.BridgeCount || got.Stats != want.Stats {
		t.Fatalf("%s: counts differ: swaps %d/%d bridges %d/%d stats %+v/%+v", label,
			got.SwapCount, want.SwapCount, got.BridgeCount, want.BridgeCount, got.Stats, want.Stats)
	}
}

// TestTrialLogMatchesRunContext is the oracle for a trial's op log: the
// winner SelectBest materializes from it is exactly the circuit the
// reference traversal (run) builds for the same trial — same layouts
// and RNG state, every traversal emitting gates, the reverse ones over
// the reversed circuit's own DAG — and the depth replayed from the log
// equals DecomposeSwaps().Depth() of that circuit.
func TestTrialLogMatchesRunContext(t *testing.T) {
	const trial = 1
	dev := arch.IBMQ20Tokyo()
	for _, tc := range oracleCases() {
		p, err := Prepare(tc.circ, dev, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		res, depth, err := p.RunTrialCtx(context.Background(), trial, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Circuit != nil {
			t.Fatalf("%s: a trial built its circuit before selection", tc.name)
		}

		opts, pdev := p.Options(), p.Device()
		wide := tc.circ.Widen(pdev.NumQubits())
		fwd, rev := newPrepared(wide, pdev, opts), newPrepared(wide.Reverse(), pdev, opts)
		rng := rand.New(rand.NewSource(opts.Seed + trial))
		layout := mapping.Random(pdev.NumQubits(), rng)
		var want passResult
		for trav := 0; trav < opts.Traversals; trav++ {
			runner := fwd
			if trav%2 == 1 {
				runner = rev
			}
			want = runner.run(layout, rng, nil, false)
			layout = want.FinalLayout
		}
		if wantDepth := want.Circuit.DecomposeSwaps().Depth(); depth != wantDepth {
			t.Fatalf("%s: replayed depth %d, DecomposeSwaps().Depth() %d", tc.name, depth, wantDepth)
		}

		best, err := SelectBest([]*Result{res}, []int{depth})
		if err != nil {
			t.Fatal(err)
		}
		if best.pending != nil {
			t.Fatalf("%s: the winner kept its op log", tc.name)
		}
		init, err := mapping.FromLogicalToPhysical(best.InitialLayout)
		if err != nil {
			t.Fatal(err)
		}
		final, err := mapping.FromLogicalToPhysical(best.FinalLayout)
		if err != nil {
			t.Fatal(err)
		}
		got := passResult{
			Circuit:       best.Circuit,
			InitialLayout: init,
			FinalLayout:   final,
			SwapCount:     best.SwapCount,
			BridgeCount:   best.BridgeCount,
			Stats:         best.Stats,
		}
		samePass(t, tc.name, got, want)
		if got.Circuit.Name() != want.Circuit.Name() || got.Circuit.NumQubits() != want.Circuit.NumQubits() {
			t.Fatalf("%s: materialized circuit is %q on %d qubits, want %q on %d", tc.name,
				got.Circuit.Name(), got.Circuit.NumQubits(), want.Circuit.Name(), want.Circuit.NumQubits())
		}
	}
}

// TestReverseRunnerMatchesReversedCircuit is the oracle for the reverse
// store: a traversal that reads the forward DAG backwards routes
// exactly as one over Circuit.Reverse and its own DAG.
func TestReverseRunnerMatchesReversedCircuit(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	for _, tc := range oracleCases() {
		p, err := Prepare(tc.circ, dev, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		opts, pdev := p.Options(), p.Device()
		oracle := newPrepared(tc.circ.Widen(pdev.NumQubits()).Reverse(), pdev, opts)
		init := mapping.Random(pdev.NumQubits(), rand.New(rand.NewSource(3)))
		got := p.run(init, rand.New(rand.NewSource(4)), nil, true)
		want := oracle.run(init, rand.New(rand.NewSource(4)), nil, false)
		samePass(t, tc.name, got, want)
	}
}

// TestInitialMappingRanksByAddedGates: InitialMapping ranks its
// candidate layouts by the probe pass's added gates, 3·(SWAPs +
// bridges), as BetterTrial ranks trials, with the lowest trial on
// ties. The reference runs each trial's forward, backward and probe
// passes through run, the backward one over the reversed circuit's own
// DAG. With
// bridges on, ranking by SWAPs alone picks a worse layout on both rows
// (rd84_142: 144 added gates instead of 126; sym6_145: 1,734 instead
// of 1,719), which the test checks too, so it tells the rankings apart.
func TestInitialMappingRanksByAddedGates(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	for _, name := range []string{"rd84_142", "sym6_145"} {
		b, _ := workloads.ByName(name)
		circ := b.Build()
		opts := DefaultOptions()
		opts.UseBridge = true
		got, err := InitialMapping(context.Background(), circ, dev, opts)
		if err != nil {
			t.Fatal(err)
		}

		norm := opts.normalized()
		wide := circ.Widen(dev.NumQubits())
		fwd, rev := newPrepared(wide, dev, norm), newPrepared(wide.Reverse(), dev, norm)
		bestAdded, bestSwaps := -1, -1
		var want, bySwaps mapping.Layout
		for trial := 0; trial < norm.Trials; trial++ {
			rng := rand.New(rand.NewSource(norm.Seed + int64(trial)))
			f := fwd.run(mapping.Random(dev.NumQubits(), rng), rng, nil, false)
			back := rev.run(f.FinalLayout, rng, nil, false)
			probe := fwd.run(back.FinalLayout, rng, nil, false)
			if added := 3 * (probe.SwapCount + probe.BridgeCount); bestAdded < 0 || added < bestAdded {
				bestAdded, want = added, back.FinalLayout
			}
			if bestSwaps < 0 || probe.SwapCount < bestSwaps {
				bestSwaps, bySwaps = probe.SwapCount, back.FinalLayout
			}
		}
		if want.Equal(bySwaps) {
			t.Fatalf("%s: ranking by SWAPs picks the same layout; the case no longer discriminates", name)
		}
		if !got.Equal(want) {
			t.Errorf("%s: InitialMapping returned %v, want the fewest-added-gates layout %v (%d added)", name, got, want, bestAdded)
		}
	}
}

// TestCompileRetainsNoPrepared: once Compile's trials are selected,
// nothing reachable from the winning Result references the Prepared —
// and through it the DAG — so a result cache or a retained job holds
// the routed circuit only. The test runs Compile's body after Prepare
// (the runner at one worker) so it can hold a weak pointer to the
// Prepared.
func TestCompileRetainsNoPrepared(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	b, _ := workloads.ByName("rd84_142")
	p, err := Prepare(b.Build(), dev, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	w := weak.Make(p)
	best, err := TrialRunner{Trials: p.Options().Trials, Workers: 1}.Run(context.Background(), p.RunTrialCtx)
	if err != nil {
		t.Fatal(err)
	}
	p = nil
	runtime.GC()
	if w.Value() != nil {
		t.Error("the Prepared outlived Compile while its winner is reachable")
	}
	if best.Circuit == nil || best.Circuit.NumGates() == 0 {
		t.Fatal("winner has no circuit")
	}
	runtime.KeepAlive(best)
}
