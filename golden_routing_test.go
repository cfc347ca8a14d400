// Golden determinism suite for the routing core's scoring engines:
// the branch-free bitset engine (the default) and the exhaustive
// reference must route byte-identically over the entire Table II
// workload suite — same output circuits, same layouts, same pass
// statistics — at any trial worker count, including under a noise
// model (float-weighted distances) and with bridges enabled. Both
// share one candidate order (ascending dense edge id) and one
// tie-break comparison sequence, so they consume the same RNG stream;
// this suite is the proof. Each reference result is also pinned by a
// SHA-256 digest, so a change inside the shared SWAP loop — which
// both engines would follow in lockstep — cannot pass unnoticed.
package sabre_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/qasm"
	"repro/internal/route"
	"repro/internal/workloads"
)

// assertSameResult fails unless a and b are byte-identical routing
// outcomes: gate-for-gate equal circuits, equal layouts, and equal
// instrumentation.
func assertSameResult(t *testing.T, label string, a, b *core.Result) {
	t.Helper()
	if !a.Circuit.Equal(b.Circuit) {
		t.Fatalf("%s: routed circuits differ (%d vs %d gates)", label, a.Circuit.NumGates(), b.Circuit.NumGates())
	}
	if len(a.InitialLayout) != len(b.InitialLayout) {
		t.Fatalf("%s: initial layout sizes differ", label)
	}
	for i := range a.InitialLayout {
		if a.InitialLayout[i] != b.InitialLayout[i] || a.FinalLayout[i] != b.FinalLayout[i] {
			t.Fatalf("%s: layouts differ at qubit %d", label, i)
		}
	}
	if a.SwapCount != b.SwapCount || a.BridgeCount != b.BridgeCount || a.AddedGates != b.AddedGates {
		t.Fatalf("%s: counts differ: swaps %d/%d bridges %d/%d", label,
			a.SwapCount, b.SwapCount, a.BridgeCount, b.BridgeCount)
	}
	if a.Stats != b.Stats {
		t.Fatalf("%s: pass stats differ: %+v vs %+v", label, a.Stats, b.Stats)
	}
}

// resultDigest is the SHA-256 pin of one routing outcome: the routed
// circuit as QASM, both layouts, the SWAP, bridge and added-gate
// counts, and the pass statistics.
func resultDigest(r *core.Result) string {
	h := sha256.New()
	io.WriteString(h, qasm.Format(r.Circuit))
	fmt.Fprintf(h, "%v %v %d %d %d %+v", r.InitialLayout, r.FinalLayout,
		r.SwapCount, r.BridgeCount, r.AddedGates, r.Stats)
	return hex.EncodeToString(h.Sum(nil))
}

// assertDigest fails unless got matches the pinned digest for label.
func assertDigest(t *testing.T, pins map[string]string, label, got string) {
	t.Helper()
	if want := pins[label]; got != want {
		t.Errorf("%s: output digest %s, pinned %s (routed output changed)", label, got, want)
	}
}

// goldenEngines is the engine set every golden test sweeps.
var goldenEngines = []struct {
	name    string
	scoring core.Scoring
}{
	{"bitset", core.ScoringBitset},
	{"exhaustive", core.ScoringExhaustive},
}

// goldenSuiteDigests pins resultDigest of every Table II row under
// TestGoldenScoringEnginesFullSuite's configuration (default options,
// 2 trials, IBM Q20 Tokyo).
var goldenSuiteDigests = map[string]string{
	"4mod5-v1_22":    "00d843793298b8cc6cfd429aefdd5031c4d1f72d0a33b3815c632ff777e3120d",
	"mod5mils_65":    "7ca089c85b5b0ea536e8759663b37efac3d782a7d9af9f105a7a66a73c6b4897",
	"alu-v0_27":      "38d55b2bb9bbc635f790b06a812902b3f72dd989dfe764742f8ce6f229269ab2",
	"decod24-v2_43":  "0e41dc7f6da27d87fa248674896712edb38f1fecb09859050d12e74e199bcf9d",
	"4gt13_92":       "0b6c3de8935308b1216a7d88aa19da7213d32b031b344cf5c132df00ac08915a",
	"ising_model_10": "d41ee68dbd9dc7389446397be892cb90e2dd18a914496d7c4387f311779a8fe7",
	"ising_model_13": "cc199729500171f851a61f75d8ac01f9ebe99376a7adc56d89850a432c156927",
	"ising_model_16": "32be03a8fc103b969dae8c3bbfac30bb718443f5d335b109bc850de77d857344",
	"qft_10":         "7a47d890e588913d4cb3d9578d76fd8f7922e5173374f42f905372bf8de7bd3b",
	"qft_13":         "5e3bce7429b08ab1133fce8592f6712c8deb8d92b192d07f17a709fcff3d71d1",
	"qft_16":         "aa82dfef3ebb93349602effcdd3915f953a24e0242c30d7a6e8afd1836f9e9be",
	"qft_20":         "6620cb75b0095f1246fb9d98c767137e735aa7eb1e2b041ade3c062f5cdf4b9c",
	"rd84_142":       "0dd99161a9806f8835242c992297c8fb99061338035da42f1626464a8d7ada1f",
	"adr4_197":       "a1c2597fb9111ddb501f6eb763e81094409dfc6c682771936b1e5b6aac49a01b",
	"radd_250":       "8db75af9df05cf96323cd1d581b35a70daac393b94ec28e0141cc81486185c29",
	"z4_268":         "55fcdb1dd61e8c214638f7dc21bcf88fc7a56c4a0ba044b6391eb9f863a44b1f",
	"sym6_145":       "60d478815474d3d8c3a7490f91efe87b45b845ff443dd3ff07155ee17721e427",
	"misex1_241":     "ac96a5faaaeb71e62d740800afa4d00b116fabbe17cc37e9d6b8d2c96f5ff853",
	"rd73_252":       "9165e2443cdd4316992b153e5c23cd7ac095176ee17451444f080357165a6e86",
	"cycle10_2_110":  "6a5ebf39fbc372add146b138ef8069a074693bc70898be2d242eeed3d7e4a9f5",
	"square_root_7":  "b012e3fc0ef0da3a51b383ea4b8d7265e428990d8b12934f874f1438dd7595ac",
	"sqn_258":        "cb26350250da39afeeeb3a19bdbd6a1cc6435672799797cf681bebfcffd16bcd",
	"rd84_253":       "7af5ac547cbffd20a0913156e4e8bf09646e58ae79f4af92d3eb5d7b2f7fab03",
	"co14_215":       "48eb2ac96ba7d0b43b90f8fa7ed0cc648fe5366c4c4e926437e54d1c35cf3a12",
	"sym9_193":       "3c477eb651969479485e352d49289b5af649da877216da6a958c2a3503c435d7",
	"9symml_195":     "4e37d0ce519da2b194f582435f9ebc3b49cb8c71f50bc401e8a661465a90c835",
}

// TestGoldenScoringEnginesFullSuite routes every Table II benchmark
// under both scoring engines at trial worker counts 1, 2, 4 and 8,
// and asserts every combination produces the byte-identical result
// (circuits, layouts, pass statistics), equal to the pinned digest.
// This is the full determinism contract in one sweep:
// engine-independence (shared candidate order and tie-break RNG
// stream), worker-count-independence (per-worker scratch isolation)
// and output stability across changes to the shared loop.
func TestGoldenScoringEnginesFullSuite(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	workerCounts := []int{1, 2, 4, 8}
	for _, b := range workloads.All() {
		circ := b.Build()
		var ref *core.Result
		for _, eng := range goldenEngines {
			opts := core.DefaultOptions()
			opts.Trials = 2 // keeps the full-suite sweep inside tier-1 budget
			opts.Scoring = eng.scoring
			for _, workers := range workerCounts {
				tr := core.TrialRunner{Trials: 2, Workers: workers}
				res, err := tr.Route(context.Background(), circ, dev, opts)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", b.Name, eng.name, workers, err)
				}
				if ref == nil {
					ref = res
					assertDigest(t, goldenSuiteDigests, b.Name, resultDigest(res))
					continue
				}
				assertSameResult(t, b.Name+"/"+eng.name, ref, res)
			}
		}
	}
}

// goldenConfigDigests pins resultDigest of each configuration of
// TestGoldenNoiseAndBridgeConfigs.
var goldenConfigDigests = map[string]string{
	"bridge":       "bbf126c9486ffaaf34b99b524d6a53791ad62faa1b018f36b772b34e944c7825",
	"noise":        "c9017d89f1b5cd20e0fdb663ac77a8460de470b8781063b4a593d0ce1d7d1f88",
	"noise+bridge": "24d27e02f7a6cb5789b00c9b0798ca3f6dd12f236ba98bc6bf13e2b912459058",
	"basic":        "353485ced73fc86652c95ff488ba825f39f4c9b4411ed4c1890e4d74110fde66",
	"lookahead":    "fb70aab913d1fadd8799866f50b92cbf7a9e6d5c76917db63c3665397525e1b6",
}

// TestGoldenNoiseAndBridgeConfigs covers the two scoring paths the
// plain suite does not reach: float-weighted distances (noise model +
// coupler pruning) and the 4-CNOT bridge transformation.
func TestGoldenNoiseAndBridgeConfigs(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.RandomCircuit("golden", 14, 300, 0.6, 5)

	for _, tc := range []struct {
		name string
		mut  func(*core.Options)
	}{
		{"bridge", func(o *core.Options) { o.UseBridge = true }},
		{"noise", func(o *core.Options) {
			o.Noise = arch.RandomNoise(dev, 1e-3, 1e-1, rand.New(rand.NewSource(7)))
			o.MaxEdgeError = 0.05
		}},
		{"noise+bridge", func(o *core.Options) {
			o.Noise = arch.RandomNoise(dev, 1e-3, 1e-1, rand.New(rand.NewSource(11)))
			o.UseBridge = true
		}},
		{"basic", func(o *core.Options) { o.Heuristic = core.HeuristicBasic }},
		{"lookahead", func(o *core.Options) { o.Heuristic = core.HeuristicLookahead }},
	} {
		var ref *core.Result
		for _, eng := range goldenEngines {
			opts := core.DefaultOptions()
			opts.Trials = 2
			opts.Scoring = eng.scoring
			tc.mut(&opts)

			res, err := core.Compile(circ, dev, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, eng.name, err)
			}
			if ref == nil {
				ref = res
				assertDigest(t, goldenConfigDigests, tc.name, resultDigest(res))
				continue
			}
			assertSameResult(t, tc.name+"/"+eng.name, ref, res)
		}
		if tc.name == "bridge" && ref.BridgeCount == 0 {
			t.Fatal("bridge config routed zero bridges; the golden test is not exercising the bridge path")
		}
	}
}

// TestGoldenTrialRunnerWorkerInvariance runs the best-of-N trial
// protocol at several worker counts (including an odd count and the
// machine's own GOMAXPROCS) with a deeper trial budget than the
// full-suite sweep, across both scoring engines, and asserts
// every combination selects the byte-identical winner: per-worker
// scratch reuse must never leak state between trials.
func TestGoldenTrialRunnerWorkerInvariance(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	for _, name := range []string{"qft_13", "rd84_142", "ising_model_13"} {
		b, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		circ := b.Build()
		var ref *core.Result
		for _, eng := range goldenEngines {
			opts := core.DefaultOptions()
			opts.Trials = 6
			opts.Scoring = eng.scoring
			for _, workers := range workerCounts {
				tr := core.TrialRunner{Trials: 6, Workers: workers}
				res, err := tr.Route(context.Background(), circ, dev, opts)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", name, eng.name, workers, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				assertSameResult(t, name+"/"+eng.name, ref, res)
			}
		}
	}
}

// TestBridgeSharesExtendedSetPerRound is the regression test for the
// double-computation bug: tryBridge used to build the extended set and
// insertBestSwap immediately rebuilt it within the same round. With
// the front-generation cache, one round triggers at most one rebuild,
// so the rebuild count is bounded by the number of rounds that consult
// the set (swap rounds + bridge executions); the old behavior was ~2×
// the swap rounds and trips the bound.
func TestBridgeSharesExtendedSetPerRound(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.RandomCircuit("bridge-regress", 14, 300, 0.6, 5)
	opts := core.DefaultOptions()
	opts.Trials = 2
	opts.UseBridge = true
	res, err := core.Compile(circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SwapRounds == 0 || res.BridgeCount == 0 {
		t.Fatalf("workload does not exercise bridge+swap rounds: %+v", res.Stats)
	}
	limit := res.Stats.SwapRounds + res.BridgeCount
	if res.Stats.ExtendedRebuilds > limit {
		t.Fatalf("extended set rebuilt %d times for %d swap rounds + %d bridges — recomputed more than once per round",
			res.Stats.ExtendedRebuilds, res.Stats.SwapRounds, res.BridgeCount)
	}
}

// TestRoutedOutputStillValid spot-checks that a bitset-scored routing
// remains hardware-compliant: every two-qubit gate of the decomposed
// output acts on coupled physical qubits.
func TestRoutedOutputStillValid(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	b, _ := workloads.ByName("qft_16")
	res, err := core.Compile(b.Build(), dev, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range res.Circuit.DecomposeSwaps().Gates() {
		if g.TwoQubit() && !dev.Connected(g.Q0, g.Q1) {
			t.Fatalf("gate %d (%v %d,%d) on uncoupled qubits", i, g.Kind, g.Q0, g.Q1)
		}
	}
}

// goldenAnnealDigests pins resultDigest of route.AnnealRouter
// {Iterations: 16, Chains: 3} on IBM Q20 Tokyo under default options,
// per benchmark, plus one noise-model run with coupler pruning
// (TestGoldenAnnealPinned).
var goldenAnnealDigests = map[string]string{
	"4mod5-v1_22":    "83c1992e8da1173224383d539dce17d0910dd9ea898032663fc38089f3157eee",
	"qft_10":         "2143fc79da30193d4f41bf3354f3f1b1628579f3807dba52647608b9388c4002",
	"rd84_142":       "6a9426a0337505ce5fd5d92450b3d977671993378206adf058fc0ce86579be39",
	"ising_model_13": "80845bc5bd091497133d97f56034ff1c45309cbf967ebf5c6b87fa0dc2713c13",
	"qft_10+noise":   "2c9133eb04989b51d6a3f8379d7526014768292c806170c2ad17da95d56dd46c",
}

// TestGoldenAnnealPinned pins the annealing router's output: its
// chains, its per-chain incumbent and the selection across chains
// must not move when the code that runs them does.
func TestGoldenAnnealPinned(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	r := route.AnnealRouter{Iterations: 16, Chains: 3}
	noisy := core.DefaultOptions()
	noisy.Noise = arch.RandomNoise(dev, 1e-3, 1e-1, rand.New(rand.NewSource(7)))
	noisy.MaxEdgeError = 0.05
	for _, tc := range []struct {
		label, bench string
		opts         core.Options
	}{
		{"4mod5-v1_22", "4mod5-v1_22", core.DefaultOptions()},
		{"qft_10", "qft_10", core.DefaultOptions()},
		{"rd84_142", "rd84_142", core.DefaultOptions()},
		{"ising_model_13", "ising_model_13", core.DefaultOptions()},
		{"qft_10+noise", "qft_10", noisy},
	} {
		b, ok := workloads.ByName(tc.bench)
		if !ok {
			t.Fatalf("unknown benchmark %s", tc.bench)
		}
		res, err := r.Route(context.Background(), b.Build(), dev, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		assertDigest(t, goldenAnnealDigests, tc.label, resultDigest(res))
	}
}

// goldenLayoutDigests pins resultDigest of core.CompileWithLayout on
// IBM Q20 Tokyo under default options, from the identity layout and
// from one seeded random layout per benchmark, plus one noise-model
// run with coupler pruning and one run with bridges
// (TestGoldenCompileWithLayoutPinned).
var goldenLayoutDigests = map[string]string{
	"4mod5-v1_22/identity":   "d2a91d44bec449584da7c24cee8a4cc2c768efb992e908696d16c6344d4e20bb",
	"4mod5-v1_22/random":     "3e7bbad6ba946e9f5da3a5e41d68f440f156be1c50e735864ba74dde7d70bfa9",
	"qft_10/identity":        "81b5d1fbf048d4e6b4d428d9c4522ce3ea5b521a339506fd48c2b127d8fe16af",
	"qft_10/random":          "048edc990c4d4422bfa0fb8b9de273bff04fe3e0efba656a326c95c53f7a7355",
	"rd84_142/identity":      "e87875bc27f4958e301d905e39c1a63ff685ce0404856d890c0bdef182e361bf",
	"rd84_142/random":        "d775070e9ce4a5e92637850609c464547cfb7a5e553bd9ed7ffe0aaa6d797aaa",
	"qft_10/random+noise":    "1727008485715611cf3f26ca9fc459249953c939d8df5aedd013d5f34de4c1f0",
	"rd84_142/random+bridge": "0f8ebb31500d28aa448039937418953895f8641ead2d58763f1c6ecad8a1ac44",
}

// TestGoldenCompileWithLayoutPinned pins the fixed-layout router's
// output: one forward traversal from the caller's layout under the
// generator of Options.Seed, counted as one trial whose first
// traversal is its last.
func TestGoldenCompileWithLayoutPinned(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	n := dev.NumQubits()
	random := mapping.Random(n, rand.New(rand.NewSource(5)))
	noisy := core.DefaultOptions()
	noisy.Noise = arch.RandomNoise(dev, 1e-3, 1e-1, rand.New(rand.NewSource(7)))
	noisy.MaxEdgeError = 0.05
	bridged := core.DefaultOptions()
	bridged.UseBridge = true
	for _, tc := range []struct {
		label, bench string
		init         mapping.Layout
		opts         core.Options
	}{
		{"4mod5-v1_22/identity", "4mod5-v1_22", mapping.Identity(n), core.DefaultOptions()},
		{"4mod5-v1_22/random", "4mod5-v1_22", random, core.DefaultOptions()},
		{"qft_10/identity", "qft_10", mapping.Identity(n), core.DefaultOptions()},
		{"qft_10/random", "qft_10", random, core.DefaultOptions()},
		{"rd84_142/identity", "rd84_142", mapping.Identity(n), core.DefaultOptions()},
		{"rd84_142/random", "rd84_142", random, core.DefaultOptions()},
		{"qft_10/random+noise", "qft_10", random, noisy},
		{"rd84_142/random+bridge", "rd84_142", random, bridged},
	} {
		b, ok := workloads.ByName(tc.bench)
		if !ok {
			t.Fatalf("unknown benchmark %s", tc.bench)
		}
		res, err := core.CompileWithLayout(context.Background(), b.Build(), dev, tc.init, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if res.TrialsRun != 1 || res.FirstTraversalAdded != res.AddedGates {
			t.Errorf("%s: TrialsRun %d, FirstTraversalAdded %d of %d added; want one trial whose first traversal is its last",
				tc.label, res.TrialsRun, res.FirstTraversalAdded, res.AddedGates)
		}
		if init, err := mapping.FromLogicalToPhysical(res.InitialLayout); err != nil || !init.Equal(tc.init) {
			t.Errorf("%s: routing started from %v, not the given layout", tc.label, res.InitialLayout)
		}
		assertDigest(t, goldenLayoutDigests, tc.label, resultDigest(res))
	}
}

// goldenLayoutRouteDigests pins resultDigest of the layout-then-route
// pipeline (pipeline.Build("layout", "route")) on IBM Q20 Tokyo under
// default options, per benchmark, plus one noise-model run with
// coupler pruning and one run with bridges
// (TestGoldenLayoutThenRoutePinned).
var goldenLayoutRouteDigests = map[string]string{
	"4mod5-v1_22":     "00d843793298b8cc6cfd429aefdd5031c4d1f72d0a33b3815c632ff777e3120d",
	"qft_10":          "a6c6864901c236155d90597670b0b0dbdc6eec8bd570425a50e2114993be29c2",
	"rd84_142":        "d89bb291b1018dcd773706967d179b40f92e58773962521257c6e0513e9944a6",
	"qft_10+noise":    "f0271053c2de6532bed4a70d6653b68cf3e1a34b16d3a00f2825df25f3d28296",
	"rd84_142+bridge": "5e37144d945f9bc9980affdc52c81478b6da5cfe7d566cb8f414441dce3987cc",
}

// TestGoldenLayoutThenRoutePinned pins the layout pass's search
// (InitialMapping's forward, backward and probe traversals per
// candidate) and the single forward traversal the route pass then
// runs from the layout it chose.
func TestGoldenLayoutThenRoutePinned(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	pm, err := pipeline.Build("layout", "route")
	if err != nil {
		t.Fatal(err)
	}
	noisy := core.DefaultOptions()
	noisy.Noise = arch.RandomNoise(dev, 1e-3, 1e-1, rand.New(rand.NewSource(7)))
	noisy.MaxEdgeError = 0.05
	bridged := core.DefaultOptions()
	bridged.UseBridge = true
	for _, tc := range []struct {
		label, bench string
		opts         core.Options
	}{
		{"4mod5-v1_22", "4mod5-v1_22", core.DefaultOptions()},
		{"qft_10", "qft_10", core.DefaultOptions()},
		{"rd84_142", "rd84_142", core.DefaultOptions()},
		{"qft_10+noise", "qft_10", noisy},
		{"rd84_142+bridge", "rd84_142", bridged},
	} {
		b, ok := workloads.ByName(tc.bench)
		if !ok {
			t.Fatalf("unknown benchmark %s", tc.bench)
		}
		pc, err := pm.Compile(context.Background(), b.Build(), dev, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if init, err := mapping.FromLogicalToPhysical(pc.Result.InitialLayout); err != nil || !init.Equal(pc.Layout) {
			t.Errorf("%s: routing started from %v, not the layout pass's %v", tc.label, pc.Result.InitialLayout, pc.Layout)
		}
		assertDigest(t, goldenLayoutRouteDigests, tc.label, resultDigest(pc.Result))
	}
}
