// Golden determinism suite for the streaming compilation mode: the
// windowed slot-arena path (RouteStream) must produce byte-identical
// output — same gate sequence, same layouts, same instrumentation —
// as the materialized-DAG oracle (RouteStreamMaterialized) over the
// entire Table II workload suite, and that output must be invariant
// under concurrency: many streams routed in parallel on per-worker
// warm Scratches yield exactly the single-threaded result. Together
// with the core package's parity tests this is the streaming
// determinism contract in one sweep. The materialized references are
// pinned by SHA-256 digests, so a change inside the SWAP loop both
// paths share cannot pass by moving them in lockstep.
package sabre_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"testing"

	sabre "repro"
	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/qasm"
	"repro/internal/workloads"
)

// gateSink accumulates emitted chunks into one gate slice, copying
// because Emit's buffer is reused.
type gateSink struct {
	gates []circuit.Gate
}

func (g *gateSink) Emit(chunk []circuit.Gate) error {
	g.gates = append(g.gates, chunk...)
	return nil
}

// streamOutcome is everything the parity assertion compares.
type streamOutcome struct {
	gates []circuit.Gate
	res   *core.StreamResult
}

func assertSameStream(t *testing.T, label string, a, b *streamOutcome) {
	t.Helper()
	if len(a.gates) != len(b.gates) {
		t.Fatalf("%s: emitted %d vs %d gates", label, len(a.gates), len(b.gates))
	}
	for i := range a.gates {
		x, y := a.gates[i], b.gates[i]
		if x.Kind != y.Kind || x.Q0 != y.Q0 || x.Q1 != y.Q1 || len(x.Params) != len(y.Params) {
			t.Fatalf("%s: gate %d differs: %v vs %v", label, i, x, y)
		}
		for j := range x.Params {
			if x.Params[j] != y.Params[j] {
				t.Fatalf("%s: gate %d param %d differs", label, i, j)
			}
		}
	}
	for i := range a.res.InitialLayout {
		if a.res.InitialLayout[i] != b.res.InitialLayout[i] || a.res.FinalLayout[i] != b.res.FinalLayout[i] {
			t.Fatalf("%s: layouts differ at qubit %d", label, i)
		}
	}
	as, bs := a.res.Stats, b.res.Stats
	if as.SwapCount != bs.SwapCount || as.BridgeCount != bs.BridgeCount ||
		as.SwapRounds != bs.SwapRounds || as.ForcedRoutes != bs.ForcedRoutes ||
		as.GatesIn != bs.GatesIn || as.GatesOut != bs.GatesOut {
		t.Fatalf("%s: stream stats differ: %+v vs %+v", label, as, bs)
	}
}

// streamDigest is the SHA-256 pin of one streaming outcome: the
// emitted gates as QASM, both layouts, and every StreamStats field
// except the wall-clock ones (Elapsed, GatesPerSec) and WindowBytes,
// the arena's capacity, which no routing decision reads.
func streamDigest(o *streamOutcome) string {
	h := sha256.New()
	io.WriteString(h, qasm.Format(circuit.New(o.res.NumQubits).AppendTrusted(o.gates...)))
	st := o.res.Stats
	st.Elapsed, st.GatesPerSec, st.WindowBytes = 0, 0, 0
	fmt.Fprintf(h, "%v %v %+v", o.res.InitialLayout, o.res.FinalLayout, st)
	return hex.EncodeToString(h.Sum(nil))
}

// goldenStreamDigests pins streamDigest of the materialized reference
// of every Table II row at the default stream options;
// goldenStreamLookahead5Digests at Lookahead 5, where the window
// rather than the extended set bounds what the heuristic sees.
var goldenStreamDigests = map[string]string{
	"4mod5-v1_22":    "757ce81e8e3b05d70311b5f6f826e02dad1776ff3536811cf2ded21853c5aadf",
	"mod5mils_65":    "1df8ef9a03340f7f3e5a072f64e23a118bf8c668a6ffb328656e0bad714da9f1",
	"alu-v0_27":      "522e26382ec3a47c12ead8b3124aa5b4acef1a920feac411a24a229ee034f4b7",
	"decod24-v2_43":  "8ceb20032c8674fdf58e2fa22c9da6b70bdaa834277f877eb56c52f0b7d28fd1",
	"4gt13_92":       "37bc881220b89c081c6e0c6f388fdc47a06bb6b533a9528a07668ed0b3d7bbc7",
	"ising_model_10": "e606de70d53860ee1aa4af39e96f9cc07dc7f57b344b45dcf74a5582a8285cc3",
	"ising_model_13": "7bfa31e9f798e7347269ecde4967ca5fcbdd690659e5be1a64c0e5fed0e5ce45",
	"ising_model_16": "46c55dce29533c7e51399e074c5d3b3f494e850b6b87156997f58a0d576f599c",
	"qft_10":         "6dcfec6ca3b9d07914b02df8981b3756810b3a64b27b7f762bc0415040aa19ef",
	"qft_13":         "54b98fed74e2ec6a9a4f8332895f1eec23f1a02d29888893ed035249004e0995",
	"qft_16":         "99a1c41485dcae1cedf84c9e0777e60369de79f62f96e0c87370511356576702",
	"qft_20":         "3a9219f65637c4c4537068f1dda79863a4fe80fa6ac0e08c449ac38ca3dd4d99",
	"rd84_142":       "0db94929464350fa91285012a9039d085cb5bde0f362dd87a37a3ea12f8d0866",
	"adr4_197":       "8f45d2b2cc338df2e74063b7260b5009d4e4e3e22284db2edee583902862f6fa",
	"radd_250":       "cd686ce5a455121e607a4ca82df81b620df8e9b8541aadf81c48cf7a33d0b682",
	"z4_268":         "9a5c3ae3c4825a1520158b2b4b772c4e51ad49dbec3d7c6aa69082ffd5eabe67",
	"sym6_145":       "fc6a8d5fc41fdfb6a2e3ac0c588cb885a94572d66777c612b91408d24d3da80f",
	"misex1_241":     "775def4885345b2f0578f41ab536d78911f74023fa07886ad117f270caf8cda6",
	"rd73_252":       "b0d895d12fa01313bf714e2a6e2c2fa2f620aa2630f1e5c2725227285f837b4b",
	"cycle10_2_110":  "5e62a1675c613ba8ddbf0bf90439e75ceedfe8a58fce521e34ee16c079784dbe",
	"square_root_7":  "71634b85d79c88ec4e62532ddbeb1574d71e84c28c0d45fb546faac07c75cace",
	"sqn_258":        "372e9e7a2a2ea06b6447e404dc49e5389c1d823717fb6984f43572e81126978e",
	"rd84_253":       "d9183b35e92987e52ff1681d9b3c06c4be53da59687e94b814845f4f7ba4edf6",
	"co14_215":       "820eef7bef2abdd04c5329dc40f8185dc6ca39ac78818c5e803811d7fd0e49ed",
	"sym9_193":       "b8ed52e8373dd76125f66755ea1ed4925fee76ccb2b172b955ccc6fde9b70095",
	"9symml_195":     "7b6ea0188047eff5120224465c2ce9cb48a1b82eb55d36fe0ff0acf6319843b1",
}

var goldenStreamLookahead5Digests = map[string]string{
	"4mod5-v1_22":    "00ca26ddc21c8380bbde63ac578e02959858f1187c3946f0a5846bcbaf16d38b",
	"mod5mils_65":    "f249eb37aac92f1d7c77d5825bbf33c23437eb79dd56c0596a02e68040bdb214",
	"alu-v0_27":      "47bb9eb9b3002cc50bec8a1c5adcb13a1f4d8fd7890f58997a54397c4f44c418",
	"decod24-v2_43":  "547f9401a049b7c5ec31cd1add0ff06444d3bd579020c3724c2291ff9a61ee2f",
	"4gt13_92":       "62cc9d9c905ad83124de7d27a3f312b0c5caac89f74a30f16385592208370dcb",
	"ising_model_10": "5e62a0ade5151010e2862fbce1c2d9216c89885b7967ff1c760c5151ca8da834",
	"ising_model_13": "cbbc11d941cc9370745123232ff84e74bc78e22357ba5102ea79b0b4513b199a",
	"ising_model_16": "e23b89f399a92cb77fd3dce56a2f93864a7cbca84d597b7cb96db64270741de8",
	"qft_10":         "81500f54c861a35b3174de1fdee39e3d1a6926cd1b5d8475e74d7cf4263b32ff",
	"qft_13":         "987e5332c75507d66210e218754d4068604a670681da8d16f8cad1176cce5c14",
	"qft_16":         "8fd28d6d259a4434ff82707bfe0bbb48cce6ba7c73255f1ff2ff71e739fe8a43",
	"qft_20":         "c7b69d1a8fe8464ac67625a5e3b501e4391450e400c62c97014e3415c384c89e",
	"rd84_142":       "b4e0ccdc8e0130083b77593464fb96e1e9aaab558af00f56b15c24af8174041c",
	"adr4_197":       "77873febfce08c5d7f1410ccab72efb94b63d03d4804f210abf4eeb1f47ee647",
	"radd_250":       "c06add631d73b428a708afc5f57764c1b0633a1abd9a3689ba4597156c639a84",
	"z4_268":         "dcccc2304d6acc4b5a07b18965d8766a528ed8b04ed7665219e4b9996c443734",
	"sym6_145":       "2e607a1aec288cda0b6c1eec74e693f2bbd0910a25677bdd52c9a42d323994ad",
	"misex1_241":     "97e8166b8b8ae8004a6242ae08384bf6f9ecf26915b80845dbbeddafda7ecd6e",
	"rd73_252":       "a5b18d77271cb43afc1575459cc2d3e8a1ed3623213ffe8a265c8552d06a6440",
	"cycle10_2_110":  "d4507d1714f1fd17ca06cc82f6d5e8d075c89a6e1aaa08a4cd93c5c4e21e9b2e",
	"square_root_7":  "a4d3f58ffe406610fbc76a6d9cf4e91aac3f071a3347f4d2ef3bacee35bb0295",
	"sqn_258":        "3cc2ad68f404c61bd43f6a3bec6326c9f0722fa59ffc3bc59807f0d2648587b5",
	"rd84_253":       "f05b4c79a2686453fee3fd6135876037ce5a4c11157165d185101d983c718d0a",
	"co14_215":       "c8761784e8cbcb57aacc464a11c56bf016685967cb17359847c21253a01fa88f",
	"sym9_193":       "9d0d279e99902687a5e222c58f819ade73cbad032c3f8ad17f71939ad1473390",
	"9symml_195":     "bde85b3279b34be7b7d86077af32efbcd026c79a3b6d74793775f90903758d8d",
}

// TestGoldenStreamingFullSuite streams every Table II benchmark
// through the windowed path and asserts byte-parity against the
// materialized oracle, whose output is pinned by digest at the default
// stream options and at Lookahead 5. It then repeats the whole
// windowed sweep on worker pools of 1, 2, 4 and 8 goroutines
// (per-worker warm Scratch, workloads pulled off a shared queue) and
// asserts every worker count reproduces the same bytes — per-worker
// scratch reuse must never leak state between streams.
func TestGoldenStreamingFullSuite(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	opts := core.DefaultOptions()
	sopts := core.DefaultStreamOptions()
	short := core.DefaultStreamOptions()
	short.Lookahead = 5
	suite := workloads.All()

	route := func(name string, so core.StreamOptions, materialized bool, circ *circuit.Circuit) *streamOutcome {
		sink := &gateSink{}
		var res *core.StreamResult
		var err error
		if materialized {
			res, err = core.RouteStreamMaterialized(context.Background(), circ, dev, opts, so, sink)
		} else {
			res, err = core.RouteStream(context.Background(), core.NewCircuitSource(circ), dev, opts, so, sink, nil)
		}
		if err != nil {
			t.Fatalf("%s (materialized=%v): %v", name, materialized, err)
		}
		return &streamOutcome{gates: sink.gates, res: res}
	}

	// Materialized-oracle reference, one per workload, pinned by digest;
	// at Lookahead 5 the windowed path is held to its oracle here too.
	ref := make(map[string]*streamOutcome, len(suite))
	for _, b := range suite {
		circ := b.Build()
		ref[b.Name] = route(b.Name, sopts, true, circ)
		assertDigest(t, goldenStreamDigests, b.Name, streamDigest(ref[b.Name]))
		oracle := route(b.Name, short, true, circ)
		assertDigest(t, goldenStreamLookahead5Digests, b.Name, streamDigest(oracle))
		assertSameStream(t, b.Name+"/lookahead-5", oracle, route(b.Name, short, false, circ))
	}

	for _, workers := range []int{1, 2, 4, 8} {
		queue := make(chan workloads.Benchmark, len(suite))
		for _, b := range suite {
			queue <- b
		}
		close(queue)

		var wg sync.WaitGroup
		errs := make(chan error, workers)
		outs := make([]map[string]*streamOutcome, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				scratch := core.NewScratch() // warm across this worker's streams
				got := make(map[string]*streamOutcome)
				outs[w] = got
				for b := range queue {
					sink := &gateSink{}
					res, err := core.RouteStream(context.Background(),
						core.NewCircuitSource(b.Build()), dev, opts, sopts, sink, scratch)
					if err != nil {
						errs <- err
						return
					}
					got[b.Name] = &streamOutcome{gates: sink.gates, res: res}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("workers=%d: %v", workers, err)
		}

		routed := 0
		for w := range outs {
			for name, got := range outs[w] {
				assertSameStream(t, name, ref[name], got)
				routed++
			}
		}
		if routed != len(suite) {
			t.Fatalf("workers=%d: routed %d workloads, want %d", workers, routed, len(suite))
		}
	}
}

// TestFacadeCompileStream drives the whole public streaming surface:
// QASM in through a GateScanner, routed through CompileStream with a
// verifying sink, serialized back out through a QASMStreamWriter —
// and the bytes must match the core-level materialized oracle.
func TestFacadeCompileStream(t *testing.T) {
	dev := sabre.IBMQ20Tokyo()
	circ := workloads.RandomCircuit("facade-stream", 15, 2000, 0.5, 9)
	var src bytes.Buffer
	if err := qasm.Write(&src, circ); err != nil {
		t.Fatal(err)
	}
	opts := sabre.DefaultOptions()
	sopts := sabre.DefaultStreamOptions()

	var out bytes.Buffer
	sw := sabre.NewQASMStreamWriter(&out, dev.NumQubits())
	sink := sabre.NewVerifySink(sw, dev)
	res, err := sabre.CompileStream(context.Background(),
		sabre.NewGateScanner(&src), dev, opts, sopts, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.GatesIn != 2000 || res.Stats.GatesOut < res.Stats.GatesIn {
		t.Fatalf("stats gates in/out = %d/%d", res.Stats.GatesIn, res.Stats.GatesOut)
	}
	if res.Stats.GatesPerSec <= 0 {
		t.Fatalf("gates/sec = %v", res.Stats.GatesPerSec)
	}

	// Core-level oracle over the same circuit, serialized identically.
	var want bytes.Buffer
	ow := qasm.NewStreamWriter(&want, dev.NumQubits())
	if _, err := core.RouteStreamMaterialized(context.Background(), circ, dev, opts, sopts, ow); err != nil {
		t.Fatal(err)
	}
	if err := ow.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatalf("facade stream differs from materialized oracle (%d vs %d bytes)", out.Len(), want.Len())
	}
}
