// Command benchtab regenerates the paper's evaluation artifacts:
//
//	benchtab -table2              Table II (gate counts + runtimes)
//	benchtab -table2 -type small  one class only
//	benchtab -fig8                Figure 8 (gates/depth trade-off vs δ)
//	benchtab -scaling             §V-B scalability study on QFT
//	benchtab -batch               batch engine over the full suite
//	benchtab -routers sabre,greedy,anneal -names qft_10
//	                              cross-heuristic comparison table
//	benchtab -json BENCH.json     perf-trajectory snapshot (workload ×
//	                              router: ns/op, allocs/op, g_add)
//	benchtab -async               async job queue end to end: submit,
//	                              long-poll, webhook, cancel, drain
//	benchtab -compare BENCH_PR10.json -tolerance 25 -sabre-tolerance 15
//	                              CI perf gate: re-measure the baseline
//	                              rows and exit 1 on ns/op regression
//	                              (the tighter -sabre-tolerance applies
//	                              to the zero-alloc sabre and
//	                              score_round rows), allocs/op growth
//	                              on those same rows, or added-gates
//	                              drift
//	benchtab -json BENCH.json -cpuprofile cpu.out -memprofile mem.out
//	                              write pprof profiles of whatever work
//	                              the run performed; flushed even when
//	                              a gate fails, so a regressing row can
//	                              be profiled directly
//	benchtab -fleet tokyo,grid:4x5,falcon27 -names qft_10
//	                              fleet dispatch table: calibrate each
//	                              device with seed-derived random noise,
//	                              score every workload across the fleet
//	                              (internal/fleet), compile on the
//	                              winner under its live snapshot
//
// -quick reduces SABRE to 2 trials for a fast pass; -no-astar skips the
// exponential baseline; -budget caps the A* node budget (the paper's
// memory limit analogue). -batch drives the concurrent compilation
// engine (-workers pool size, -rounds repetitions: round 1 is the cold
// pass, later rounds exercise the warm result cache); it honors -type
// and -max-gori, and -route selects a registry routing backend for the
// jobs. -routers compares registered backends side by side on the same
// workloads through the batch engine; results are deterministic at any
// -workers. -compare honors -names to bound the gate's wall-clock.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/baseline"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

func main() {
	var (
		table2      = flag.Bool("table2", false, "reproduce Table II")
		fig8        = flag.Bool("fig8", false, "reproduce Figure 8 (decay trade-off)")
		scaling     = flag.Bool("scaling", false, "reproduce the §V-B scalability study")
		searchspace = flag.Bool("searchspace", false, "measure the §IV-C1 search-space sizes (E6)")
		optimality  = flag.Bool("optimality", false, "measure the optimality gap on known-optimal instances (E7)")
		class       = flag.String("type", "", "restrict -table2 to one class: small|sim|qft|large")
		quick       = flag.Bool("quick", false, "2 SABRE trials instead of 5")
		noAStar     = flag.Bool("no-astar", false, "skip the A* (BKA) baseline")
		budget      = flag.Int("budget", 0, "A* node budget (0 = default)")
		seed        = flag.Int64("seed", 1, "PRNG seed")
		maxGori     = flag.Int("max-gori", 0, "skip benchmarks with more than this many gates (0 = no limit)")
		names       = flag.String("names", "", "restrict to named benchmarks, comma-separated (e.g. 4mod5-v1_22,qft_10)")
		trials      = flag.Int("trials", 0, "SABRE best-of-N trial count (0 = paper default; overrides -quick)")
		passesFlag  = flag.String("passes", "", "post-routing pipeline passes for -batch jobs, comma-separated: basis|peephole|schedule|verify")
		batchMode   = flag.Bool("batch", false, "drive the concurrent batch engine over the workload suite")
		asyncMode   = flag.Bool("async", false, "drive the async job queue (submit/poll/webhook/cancel) over the workload suite")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "batch engine worker count")
		rounds      = flag.Int("rounds", 2, "batch rounds (first cold, rest warm-cache)")
		routeName   = flag.String("route", "", "routing backend for -batch jobs: sabre|greedy|astar|anneal")
		routersFlag = flag.String("routers", "", "comma-separated routing backends to compare side by side (e.g. sabre,greedy,astar,anneal)")
		jsonFile    = flag.String("json", "", "measure workload × router perf (ns/op, allocs/op, added gates) and write the JSON trajectory snapshot to this file")
		compareFile = flag.String("compare", "", "re-measure the rows of this BENCH_*.json baseline and fail (exit 1) on regression — the CI perf gate")
		tolerance   = flag.Float64("tolerance", 25, "-compare: max ns/op regression in percent before failing")
		sabreTol    = flag.Float64("sabre-tolerance", 15, "-compare: tighter ns/op tolerance (percent) for the zero-alloc sabre and score_round rows")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the selected work to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file when the run finishes")
		fleetFlag   = flag.String("fleet", "", "comma-separated device specs: calibrate each (seed-derived random noise), score every workload across the fleet, and compile on the winner (e.g. tokyo,grid:4x5,falcon27)")
	)
	flag.Parse()

	if !*table2 && !*fig8 && !*scaling && !*searchspace && !*optimality && !*batchMode && !*asyncMode && *routersFlag == "" && *jsonFile == "" && *compareFile == "" && *fleetFlag == "" {
		flag.Usage()
		os.Exit(2)
	}

	flushProfiles = startProfiles(*cpuProfile, *memProfile)
	defer flushProfiles()

	cfg := exp.DefaultConfig()
	cfg.SabreOpts.Seed = *seed
	if *quick {
		cfg.SabreOpts.Trials = 2
	}
	if *trials > 0 {
		cfg.SabreOpts.Trials = *trials
	}
	if *noAStar {
		cfg.RunAStar = false
	}
	if *budget > 0 {
		cfg.AStarOpts.NodeBudget = *budget
	}

	if *table2 {
		rows, err := exp.RunTable2(selectBenches(*class, *maxGori, *names), cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println("== Table II: additional gates and runtime, SABRE vs BKA (A*) and greedy ==")
		fmt.Print(exp.FormatTable2(rows))
	}

	if *fig8 {
		fmt.Println("== Figure 8: circuit depth vs number of gates as δ varies ==")
		for _, name := range []string{"qft_10", "qft_13", "qft_16", "qft_20", "rd84_142", "radd_250", "cycle10_2_110"} {
			b, ok := workloads.ByName(name)
			if !ok {
				continue
			}
			pts, err := exp.RunFig8(b, exp.DefaultFig8Deltas(), cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Print(exp.FormatFig8(name, pts))
		}
	}

	if *scaling {
		fmt.Println("== §V-B scalability: SABRE vs A* on qft_n (Q20 device, n <= 20) ==")
		rows, err := exp.RunScalingQFT([]int{4, 6, 8, 10, 12, 14, 16, 18, 20}, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(exp.FormatScaling(rows))
	}

	if *searchspace {
		fmt.Println("== §IV-C1 search space: SABRE candidates per step vs device size ==")
		rows, err := exp.RunSearchSpace([]int{3, 4, 5, 6, 7}, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(exp.FormatSearchSpace(rows))
	}

	if *batchMode {
		// Let the engine derive per-job seeds from -seed (as BaseSeed)
		// instead of giving every job the same literal seed.
		opts := cfg.SabreOpts
		opts.Seed = 0
		runBatch(selectBenches(*class, *maxGori, *names), cfg.Device, opts, *routeName, splitPasses(*passesFlag), *workers, *rounds, *seed)
	}

	if *asyncMode {
		opts := cfg.SabreOpts
		opts.Seed = 0
		runAsync(selectBenches(*class, *maxGori, *names), cfg.Device, opts, *routeName, splitPasses(*passesFlag), *workers, *seed)
	}

	if *routersFlag != "" && *jsonFile == "" {
		runRouters(selectBenches(*class, *maxGori, *names), cfg.Device, cfg.SabreOpts, splitPasses(*routersFlag), splitPasses(*passesFlag), *workers, *seed)
	}

	if *fleetFlag != "" {
		opts := cfg.SabreOpts
		runFleet(selectBenches(*class, *maxGori, *names), splitPasses(*fleetFlag), opts, *workers, *seed)
	}

	if *compareFile != "" {
		runCompare(*compareFile, *tolerance, *sabreTol, *names)
	}

	if *jsonFile != "" {
		benches := selectBenches(*class, *maxGori, *names)
		if *names == "" && *class == "" && *maxGori == 0 {
			// Default trajectory set: one row per workload class plus
			// the scaling stress cases, capped so a snapshot stays
			// around a minute.
			benches = selectBenches("", 0, strings.Join(benchJSONDefault, ","))
		}
		routers := splitPasses(*routersFlag)
		if len(routers) == 0 {
			routers = []string{"sabre", "sabre-exhaustive", "greedy"}
		}
		runBenchJSON(*jsonFile, benches, cfg.Device, cfg.SabreOpts, routers)
	}

	if *optimality {
		fmt.Println("== E7 optimality gap on known-optimal (QUEKO-style) instances, Q20 ==")
		rows, err := exp.RunOptimalityGap(400, []int64{1, 2, 3, 4, 5, 6, 7, 8}, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(exp.FormatOptimality(rows))
	}
}

// selectBenches applies the shared -type/-max-gori/-names filters to
// the Table II suite, exiting on an unknown class or benchmark name.
// -type and -names are mutually exclusive: silently intersecting them
// would make one filter look ignored.
func selectBenches(class string, maxGori int, names string) []workloads.Benchmark {
	if class != "" && names != "" {
		fmt.Fprintln(os.Stderr, "benchtab: -type and -names are mutually exclusive")
		os.Exit(1)
	}
	benches := workloads.All()
	if class != "" {
		benches = workloads.ByClass(workloads.Class(class))
		if len(benches) == 0 {
			fmt.Fprintf(os.Stderr, "benchtab: unknown class %q\n", class)
			os.Exit(1)
		}
	}
	if names != "" {
		var kept []workloads.Benchmark
		for _, name := range strings.Split(names, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			b, ok := workloads.ByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "benchtab: unknown benchmark %q\n", name)
				os.Exit(1)
			}
			kept = append(kept, b)
		}
		benches = kept
	}
	if maxGori > 0 {
		var kept []workloads.Benchmark
		for _, b := range benches {
			if b.Gori <= maxGori {
				kept = append(kept, b)
			}
		}
		benches = kept
	}
	return benches
}

// splitPasses parses the -passes flag value.
func splitPasses(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runBatch compiles the whole benchmark list through the concurrent
// engine for the requested number of rounds on one shared engine.
// Round 1 is the cold pass (every job runs the SABRE search); later
// rounds replay the same jobs and are served by the result cache,
// printing the throughput gap between the two regimes. Requested
// post-routing passes run inside each job; a failing verify pass
// fails the run (exit 1).
func runBatch(benches []workloads.Benchmark, dev *arch.Device, opts core.Options, routeName string, passes []string, workers, rounds int, seed int64) {
	eng := batch.NewEngine(batch.Config{Workers: workers, BaseSeed: seed})
	defer eng.Close()

	jobs := make([]batch.Job, len(benches))
	for i, b := range benches {
		jobs[i] = batch.Job{Circuit: b.Build(), Device: dev, Options: opts, Route: routeName, Passes: passes, Tag: b.Name}
	}

	routeStage := "route"
	if routeName != "" {
		routeStage = "route:" + routeName
	}
	fmt.Printf("== batch engine: %d jobs x %d rounds, %d workers, device %s, passes %v ==\n",
		len(jobs), rounds, eng.Workers(), dev.Name(), append([]string{routeStage}, passes...))
	for round := 1; round <= rounds; round++ {
		start := time.Now()
		results := eng.CompileBatch(jobs)
		elapsed := time.Since(start)

		var addedTotal, hits int
		for _, res := range results {
			if res.Err != nil {
				fatal(fmt.Errorf("%s: %w", res.Tag, res.Err))
			}
			addedTotal += res.AddedGates
			if res.CacheHit {
				hits++
			}
		}
		if round == 1 {
			fmt.Printf("%-16s %6s %6s %7s %7s\n", "benchmark", "g_ori", "g_add", "depth", "ms")
			for _, res := range results {
				rep := &res.Report
				fmt.Printf("%-16s %6d %6d %7d %7.1f\n",
					res.Tag, rep.RefGates, res.AddedGates, rep.Depth,
					float64(res.Elapsed.Nanoseconds())/1e6)
			}
		}
		fmt.Printf("round %d: %d jobs in %v (%.1f jobs/s), %d cache hits, g_add total %d\n",
			round, len(results), elapsed.Round(time.Millisecond),
			float64(len(results))/elapsed.Seconds(), hits, addedTotal)
	}
	st := eng.Stats()
	fmt.Printf("engine: %d jobs, %d compiles, %d hits, %d shared, %d cached\n",
		st.Jobs, st.Compiles, st.Hits, st.Shared, st.Cached)
}

// runRouters compares routing backends side by side: every benchmark
// is compiled once per backend through one shared batch engine, and
// the table reports added gates (and decomposed depth) per backend.
// Jobs carry explicit per-router names into the cache key, and seeds
// derive from job content, so the table is deterministic at any
// -workers. A search that exceeds its node budget is the paper's "Out
// of Memory": its cell reads OOM, as in exp.FormatTable2, and its
// router's total reads "-"; any other error aborts the table.
func runRouters(benches []workloads.Benchmark, dev *arch.Device, opts core.Options, routers, passes []string, workers int, seed int64) {
	if len(routers) == 0 || len(benches) == 0 {
		fatal(fmt.Errorf("-routers needs at least one router and one benchmark"))
	}
	opts.Seed = 0 // content-derived seeds, reproducible at any worker count
	eng := batch.NewEngine(batch.Config{Workers: workers, BaseSeed: seed})
	defer eng.Close()

	jobs := make([]batch.Job, 0, len(benches)*len(routers))
	for _, b := range benches {
		circ := b.Build()
		for _, r := range routers {
			jobs = append(jobs, batch.Job{Circuit: circ, Device: dev, Options: opts, Route: r, Passes: passes, Tag: b.Name + "/" + r})
		}
	}
	start := time.Now()
	results := eng.CompileBatch(jobs)
	elapsed := time.Since(start)

	fmt.Printf("== router comparison: %d benchmarks x %v, device %s, %d workers ==\n",
		len(benches), routers, dev.Name(), eng.Workers())
	fmt.Println("   (per router: g_add = added gates, depth = decomposed output depth)")
	fmt.Printf("%-16s %6s", "benchmark", "g_ori")
	for _, r := range routers {
		fmt.Printf(" %9s %6s", r, "depth")
	}
	fmt.Println()
	totals := make([]int, len(routers))
	oom := make([]bool, len(routers))
	for bi, b := range benches {
		fmt.Printf("%-16s %6d", b.Name, metrics.Measure(jobs[bi*len(routers)].Circuit).Gates)
		for ri := range routers {
			res := results[bi*len(routers)+ri]
			if errors.Is(res.Err, baseline.ErrBudget) {
				fmt.Printf(" %9s %6s", "OOM", "-")
				oom[ri] = true
				continue
			}
			if res.Err != nil {
				fatal(fmt.Errorf("%s: %w", res.Tag, res.Err))
			}
			rep := &res.Report
			fmt.Printf(" %9d %6d", res.AddedGates, rep.Depth)
			totals[ri] += res.AddedGates
		}
		fmt.Println()
	}
	fmt.Printf("%-16s %6s", "total g_add", "")
	for ri := range routers {
		if oom[ri] {
			fmt.Printf(" %9s %6s", "-", "")
			continue
		}
		fmt.Printf(" %9d %6s", totals[ri], "")
	}
	fmt.Printf("\n%d jobs in %v\n", len(results), elapsed.Round(time.Millisecond))
}

// benchJSONDefault is the workload set a bare `benchtab -json FILE`
// measures: one representative row per Table II class plus the largest
// rows, so the trajectory tracks both the common case and the stress
// case.
var benchJSONDefault = []string{
	"4mod5-v1_22", "ising_model_13", "qft_10", "qft_16", "qft_20",
	"rd84_142", "rd84_253", "9symml_195",
}

// benchRow is one (workload, router) measurement of the perf
// trajectory snapshot.
type benchRow struct {
	Workload    string  `json:"workload"`
	Router      string  `json:"router"`
	Gori        int     `json:"g_ori"`
	NsPerOp     int64   `json:"ns_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	BytesPerOp  int64   `json:"bytes_op"`
	AddedGates  int     `json:"g_add"`
	Depth       int     `json:"depth"`
	TrialsRun   int     `json:"trials_run"`
	AvgCands    float64 `json:"avg_candidates"`
	// Streaming throughput columns, set only on the stream_throughput
	// pseudo-workload rows.
	GatesPerSec  float64 `json:"gates_per_sec,omitempty"`
	BytesPerGate float64 `json:"bytes_per_gate,omitempty"`
}

// benchSnapshot is the file layout of BENCH_*.json: enough environment
// detail to interpret a future diff, plus the rows.
type benchSnapshot struct {
	Device    string     `json:"device"`
	GoVersion string     `json:"go_version"`
	GoMaxProc int        `json:"gomaxprocs"`
	Trials    int        `json:"trials"`
	Rows      []benchRow `json:"rows"`
}

// runBenchJSON measures every workload × router combination with the
// testing package's benchmark harness (best of several runs, per-metric
// minima — see sampleMin) and writes the snapshot to file. The pseudo-router "sabre-exhaustive" is the sabre backend with
// Options.Scoring set to ScoringExhaustive — the from-scratch
// reference — kept in the trajectory so regressions of the incremental
// scorer show up as a shrinking gap. Every snapshot additionally carries one
// "score_round" pseudo-workload row per scoring engine — the isolated
// SWAP-selection round of core.ScoreRoundProbe, the same fixture
// BenchmarkScoreRound uses — so the hot path is gated at microbenchmark
// granularity, not only through whole-compilation rows; and one
// "stream_throughput" row per streaming path (windowed and the
// materialized oracle), carrying the gates/sec and bytes/gate axes of
// the streaming compiler.
func runBenchJSON(file string, benches []workloads.Benchmark, dev *arch.Device, opts core.Options, routers []string) {
	snap := benchSnapshot{
		Device:    dev.Name(),
		GoVersion: runtime.Version(),
		GoMaxProc: runtime.GOMAXPROCS(0),
		Trials:    opts.Trials,
	}
	if snap.Trials == 0 {
		snap.Trials = core.DefaultOptions().Trials
	}
	fmt.Printf("== perf trajectory: %d workloads x %v -> %s ==\n", len(benches), routers, file)
	for _, b := range benches {
		for _, rname := range routers {
			row := measureRow(b, dev, opts, rname)
			snap.Rows = append(snap.Rows, row)
			fmt.Printf("%-16s %-17s %12d ns/op %8d allocs/op %7d g_add\n",
				row.Workload, row.Router, row.NsPerOp, row.AllocsPerOp, row.AddedGates)
		}
	}
	for _, engine := range scoreRoundEngines {
		row := measureScoreRound(engine)
		snap.Rows = append(snap.Rows, row)
		fmt.Printf("%-16s %-17s %12d ns/op %8d allocs/op %7d g_add\n",
			row.Workload, row.Router, row.NsPerOp, row.AllocsPerOp, row.AddedGates)
	}
	for _, rname := range streamThroughputRouters {
		row := measureStreamThroughput(rname, dev)
		snap.Rows = append(snap.Rows, row)
		fmt.Printf("%-16s %-17s %12d ns/op %8d allocs/op %7d g_add %11.0f gates/s\n",
			row.Workload, row.Router, row.NsPerOp, row.AllocsPerOp, row.AddedGates, row.GatesPerSec)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(file, data, 0o644); err != nil {
		fatal(err)
	}
}

// flushProfiles stops the CPU profile and writes the heap profile, if
// either was requested. fatal routes through it so an exit-1 path — a
// failing perf gate is exactly the run one wants to profile — still
// yields complete profiles.
var flushProfiles = func() {}

// startProfiles starts the optional CPU profile and returns the
// idempotent flush that stops it and writes the optional heap profile.
func startProfiles(cpu, mem string) func() {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return
		}
		runtime.GC() // settle the heap so the profile reflects live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
		}
		f.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtab:", err)
	flushProfiles()
	os.Exit(1)
}
