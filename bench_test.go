// Benchmark harness: one testing.B target per table/figure of the
// paper's evaluation (§V). Each benchmark compiles real workloads and
// reports the paper's metrics (added gates, depth, search nodes) via
// b.ReportMetric alongside wall-clock time.
//
//	go test -bench=Table2 -benchmem .        # Table II rows
//	go test -bench=Fig8 .                    # Figure 8 δ sweep
//	go test -bench=Scaling .                 # §V-B scalability
//	go test -bench=ReverseTraversal .        # §V-A initial mapping (E5)
//
// Full-suite numbers (paper-vs-measured) live in EXPERIMENTS.md and are
// regenerated by cmd/benchtab.
package sabre_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	sabre "repro"
	"repro/internal/arch"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// benchCompile is the common body of the Table II benchmarks: compile
// with SABRE under the paper's configuration and report g_add and
// depth.
func benchCompile(b *testing.B, bench workloads.Benchmark) {
	b.Helper()
	dev := arch.IBMQ20Tokyo()
	circ := bench.Build()
	opts := core.DefaultOptions()
	var res *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Compile(circ, dev, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.AddedGates), "g_add")
	b.ReportMetric(float64(res.FirstTraversalAdded), "g_la")
	b.ReportMetric(float64(res.Circuit.DecomposeSwaps().Depth()), "depth")
}

// BenchmarkTable2Small covers Table II's "small" rows (E1/E5): SABRE
// should eliminate nearly all additional gates.
func BenchmarkTable2Small(b *testing.B) {
	for _, bench := range workloads.ByClass(workloads.ClassSmall) {
		b.Run(bench.Name, func(b *testing.B) { benchCompile(b, bench) })
	}
}

// BenchmarkTable2Sim covers the ising rows: the optimal solution
// inserts zero SWAPs and SABRE should find it.
func BenchmarkTable2Sim(b *testing.B) {
	for _, bench := range workloads.ByClass(workloads.ClassSim) {
		b.Run(bench.Name, func(b *testing.B) { benchCompile(b, bench) })
	}
}

// BenchmarkTable2QFT covers the qft rows, the all-to-all stress case.
func BenchmarkTable2QFT(b *testing.B) {
	for _, bench := range workloads.ByClass(workloads.ClassQFT) {
		b.Run(bench.Name, func(b *testing.B) { benchCompile(b, bench) })
	}
}

// BenchmarkTable2Large covers the large-arithmetic rows. The biggest
// (g_ori ≈ 35k) compile in under a second each.
func BenchmarkTable2Large(b *testing.B) {
	for _, bench := range workloads.ByClass(workloads.ClassLarge) {
		b.Run(bench.Name, func(b *testing.B) { benchCompile(b, bench) })
	}
}

// BenchmarkTable2BKA runs the Zulehner-style A* baseline on the rows it
// can finish, reporting search size; pair with BenchmarkTable2* for the
// t_tot/t_op runtime ratio of Table II (E2).
func BenchmarkTable2BKA(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	for _, name := range []string{
		"4mod5-v1_22", "mod5mils_65", "alu-v0_27", "decod24-v2_43", "4gt13_92",
		"ising_model_10", "qft_10", "qft_13", "rd84_142",
	} {
		bench, ok := workloads.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %s", name)
		}
		b.Run(name, func(b *testing.B) {
			circ := bench.Build()
			var res *baseline.AStarResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = baseline.AStarCompile(circ, dev, baseline.DefaultAStarOptions())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.AddedGates), "g_add")
			b.ReportMetric(float64(res.NodesExpanded), "nodes")
		})
	}
}

// BenchmarkFig8DecaySweep regenerates Figure 8's series (E4): for each
// δ it reports the normalized gate count and depth of qft_13, the
// trade-off the decay effect controls.
func BenchmarkFig8DecaySweep(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(13)
	orig := metrics.Measure(circ)
	for _, delta := range exp.DefaultFig8Deltas() {
		b.Run(fmt.Sprintf("delta=%g", delta), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.DecayDelta = delta
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Compile(circ, dev, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			m := metrics.Measure(res.Circuit)
			b.ReportMetric(float64(m.Gates)/float64(orig.Gates), "g_norm")
			b.ReportMetric(float64(m.Depth)/float64(orig.Depth), "d_norm")
		})
	}
}

// BenchmarkScalingSABRE and BenchmarkScalingBKA regenerate the §V-B
// scalability comparison (E3): SABRE's runtime grows polynomially with
// the QFT size while the A* baseline's search explodes and finally
// exceeds its memory budget at qft_20.
func BenchmarkScalingSABRE(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	for _, n := range []int{8, 12, 16, 20} {
		b.Run(fmt.Sprintf("qft_%d", n), func(b *testing.B) {
			circ := workloads.QFT(n)
			opts := core.DefaultOptions()
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Compile(circ, dev, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.AddedGates), "g_add")
		})
	}
}

func BenchmarkScalingBKA(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	for _, n := range []int{8, 12, 16} { // qft_20 exceeds the budget: the OOM row
		b.Run(fmt.Sprintf("qft_%d", n), func(b *testing.B) {
			circ := workloads.QFT(n)
			var res *baseline.AStarResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = baseline.AStarCompile(circ, dev, baseline.DefaultAStarOptions())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.NodesExpanded), "nodes")
			b.ReportMetric(float64(res.MaxLayerNodes), "maxlayer_nodes")
		})
	}
}

// BenchmarkScalingBKAOOM documents the qft_20 out-of-memory row: the
// baseline must trip its budget (the paper's 378 GB analogue).
func BenchmarkScalingBKAOOM(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(20)
	for i := 0; i < b.N; i++ {
		_, err := baseline.AStarCompile(circ, dev, baseline.DefaultAStarOptions())
		if !errors.Is(err, baseline.ErrBudget) {
			b.Fatalf("qft_20 should exceed the node budget, got %v", err)
		}
	}
	b.ReportMetric(1, "oom")
}

// BenchmarkReverseTraversal quantifies E5: added gates with one forward
// traversal (g_la) vs the full forward-backward-forward pipeline
// (g_op), per trial count identical.
func BenchmarkReverseTraversal(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(16)
	for _, travs := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("traversals=%d", travs), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Traversals = travs
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Compile(circ, dev, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.AddedGates), "g_add")
		})
	}
}

// BenchmarkGreedyBaseline provides the naive-router reference point for
// the same stress workload.
func BenchmarkGreedyBaseline(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(16)
	var res *baseline.GreedyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = baseline.GreedyCompile(circ, dev)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.AddedGates), "g_add")
}

// BenchmarkRoutePassOnly isolates one forward traversal (the paper's t_1
// column): SABRE's inner search without restarts or reverse passes.
func BenchmarkRoutePassOnly(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(16)
	opts := core.DefaultOptions()
	opts.Trials = 1
	opts.Traversals = 1
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(circ, dev, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHeuristic compares the three cost functions of §IV-D
// on the same workload: basic (Eq. 1), lookahead (Eq. 2 w/o decay) and
// the full decay heuristic.
func BenchmarkAblationHeuristic(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(13)
	for _, h := range []core.Heuristic{core.HeuristicBasic, core.HeuristicLookahead, core.HeuristicDecay} {
		b.Run(h.String(), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Heuristic = h
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Compile(circ, dev, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.AddedGates), "g_add")
			b.ReportMetric(float64(res.Circuit.DecomposeSwaps().Depth()), "depth")
		})
	}
}

// BenchmarkAblationBridge measures the §VI bridge transformation: same
// workload routed with and without 4-CNOT bridges for non-recurring
// distance-2 CNOTs.
func BenchmarkAblationBridge(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.RandomCircuit("bridge", 14, 300, 0.6, 5)
	for _, useBridge := range []bool{false, true} {
		name := "swap-only"
		if useBridge {
			name = "with-bridge"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.UseBridge = useBridge
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Compile(circ, dev, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.AddedGates), "g_add")
			b.ReportMetric(float64(res.BridgeCount), "bridges")
		})
	}
}

// BenchmarkAblationNoiseAware measures the §VI variability-aware
// extension: expected success probability with and without the
// noise-weighted distance matrix + dead-coupler pruning, on a Q20 with
// four degraded couplers.
func BenchmarkAblationNoiseAware(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	noise := arch.UniformNoise(0.005)
	noise.EdgeError = map[arch.Edge]float64{
		arch.NewEdge(6, 7):   0.25,
		arch.NewEdge(7, 12):  0.25,
		arch.NewEdge(11, 12): 0.25,
		arch.NewEdge(12, 13): 0.25,
	}
	circ := workloads.RandomCircuit("noise", 12, 200, 0.7, 7)
	success := func(res *core.Result) float64 {
		p := 1.0
		for _, g := range res.Circuit.DecomposeSwaps().Gates() {
			if g.TwoQubit() {
				p *= 1 - noise.Error(arch.NewEdge(g.Q0, g.Q1))
			}
		}
		return p
	}
	for _, aware := range []bool{false, true} {
		name := "hop-count"
		if aware {
			name = "noise-aware"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions()
			if aware {
				opts.Noise = noise
				opts.MaxEdgeError = 0.1
			}
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Compile(circ, dev, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(success(res), "success_prob")
			b.ReportMetric(float64(res.AddedGates), "g_add")
		})
	}
}

// BenchmarkSearchSpace measures E6 (§IV-C1): SWAP candidates scored per
// search round vs device size — SABRE's O(N) search space.
func BenchmarkSearchSpace(b *testing.B) {
	for _, side := range []int{3, 5, 7} {
		n := side * side
		b.Run(fmt.Sprintf("grid_n=%d", n), func(b *testing.B) {
			dev := arch.Grid(side, side)
			circ := workloads.RandomCircuit("ss", n, 30*n, 0.9, int64(side))
			opts := core.DefaultOptions()
			opts.Trials = 1
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Compile(circ, dev, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Stats.AvgCandidates(), "avg_candidates")
			b.ReportMetric(float64(res.Stats.MaxCandidates), "max_candidates")
		})
	}
}

// BenchmarkOptimalityGap measures E7: added gates on device-filling
// QUEKO-style instances whose optimum is 0 by construction.
func BenchmarkOptimalityGap(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	circ, _ := workloads.KnownOptimal(dev, 400, 1)
	opts := core.DefaultOptions()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Compile(circ, dev, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.AddedGates), "optimality_gap")
}

// BenchmarkBatchCompile measures the concurrent batch engine over the
// fast half of the Table II suite: 1 worker vs GOMAXPROCS workers on a
// cold cache (the parallel speedup), and a warm cache (the caching
// speedup — repeated workloads must be at least ~5× faster than a cold
// single-worker pass; in practice hits are thousands of times faster).
func BenchmarkBatchCompile(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	var jobs []sabre.BatchJob
	for _, bench := range workloads.All() {
		if bench.Gori > 1000 {
			continue // keep iterations fast; the large rows dominate otherwise
		}
		jobs = append(jobs, sabre.BatchJob{
			Circuit: bench.Build(),
			Device:  dev,
			Options: core.DefaultOptions(),
			Tag:     bench.Name,
		})
	}

	run := func(b *testing.B, eng *sabre.Engine) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			for _, res := range eng.CompileBatch(jobs) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
		b.ReportMetric(float64(len(jobs)), "jobs")
	}

	b.Run("workers=1/cold", func(b *testing.B) {
		eng := sabre.NewEngine(sabre.BatchConfig{Workers: 1, CacheEntries: -1})
		defer eng.Close()
		run(b, eng)
	})
	b.Run(fmt.Sprintf("workers=%d/cold", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		eng := sabre.NewEngine(sabre.BatchConfig{CacheEntries: -1})
		defer eng.Close()
		run(b, eng)
	})
	b.Run(fmt.Sprintf("workers=%d/warm", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		eng := sabre.NewEngine(sabre.BatchConfig{})
		defer eng.Close()
		eng.CompileBatch(jobs) // prime the cache
		primed := eng.Stats()
		b.ResetTimer()
		run(b, eng)
		st := eng.Stats()
		b.ReportMetric(float64(st.Hits-primed.Hits)/float64(st.Jobs-primed.Jobs), "hit_rate")
	})
}

// BenchmarkQASMParse measures the custom parser on a generated qft_16
// program — the benchmark-loading path.
func BenchmarkQASMParse(b *testing.B) {
	text := sabre.FormatQASM(workloads.QFT(16))
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sabre.ParseQASM(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistanceMatrix measures preprocessing (§IV-A Floyd–Warshall)
// on NISQ-scale devices.
func BenchmarkDistanceMatrix(b *testing.B) {
	for _, n := range []int{20, 100, 400} {
		b.Run(fmt.Sprintf("grid_n=%d", n), func(b *testing.B) {
			side := 1
			for side*side < n {
				side++
			}
			for i := 0; i < b.N; i++ {
				arch.Grid(side, side)
			}
		})
	}
}
