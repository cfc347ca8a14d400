package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/route"
	"repro/internal/workloads"
)

// measureSamples is how many independent benchmark runs back each
// row; the row keeps the per-metric minimum across them.
const measureSamples = 3

// sampleMin benchmarks fn measureSamples times (each through the
// testing package's harness, so the numbers mean exactly what
// `go test -bench` reports) and returns the per-metric minima. A
// single one-second sample of a multi-millisecond benchmark can swing
// ±15-35% on a loaded machine — enough to flake the tightened gate —
// while the minimum is a stable estimate of the code's true cost;
// allocs/op additionally rounds total/N differently run to run, so
// its minimum removes a ±1 flicker on the strict rows.
func sampleMin(fn func(tb *testing.B)) (nsOp, allocsOp, bytesOp int64) {
	for k := 0; k < measureSamples; k++ {
		br := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			fn(tb)
		})
		if k == 0 || br.NsPerOp() < nsOp {
			nsOp = br.NsPerOp()
		}
		if k == 0 || br.AllocsPerOp() < allocsOp {
			allocsOp = br.AllocsPerOp()
		}
		if k == 0 || br.AllocedBytesPerOp() < bytesOp {
			bytesOp = br.AllocedBytesPerOp()
		}
	}
	return nsOp, allocsOp, bytesOp
}

// measureRow benchmarks one workload × router combination (best of
// measureSamples runs). The pseudo-router "sabre-exhaustive" is the
// sabre backend with Options.Scoring set to ScoringExhaustive — the
// from-scratch reference kept in the trajectory so regressions of the
// incremental scorer show up as a shrinking gap.
func measureRow(b workloads.Benchmark, dev *arch.Device, opts core.Options, rname string) benchRow {
	circ := b.Build()
	ropts := opts
	backend := rname
	if rname == "sabre-exhaustive" {
		backend = "sabre"
		ropts.Scoring = core.ScoringExhaustive
	}
	router, err := route.New(backend)
	if err != nil {
		fatal(err)
	}
	// One warm route before timing: lazily-built shared state (the
	// device's memoized distance matrices, mostly) is paid here, not
	// inside the first sample, and the result columns come from it.
	res, routeErr := router.Route(context.Background(), circ, dev, ropts)
	if routeErr != nil {
		fatal(fmt.Errorf("%s/%s: %w", b.Name, rname, routeErr))
	}
	row := benchRow{
		Workload:   b.Name,
		Router:     rname,
		Gori:       circ.NumGates(),
		AddedGates: res.AddedGates,
		Depth:      res.Circuit.DecomposeSwaps().Depth(),
		TrialsRun:  res.TrialsRun,
		AvgCands:   res.Stats.AvgCandidates(),
	}
	row.NsPerOp, row.AllocsPerOp, row.BytesPerOp = sampleMin(func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			if _, err := router.Route(context.Background(), circ, dev, ropts); err != nil {
				routeErr = err
				tb.Fatal(err)
			}
		}
	})
	// tb.Fatal only aborts the benchmark function; surface the
	// failure here.
	if routeErr != nil {
		fatal(fmt.Errorf("%s/%s: %w", b.Name, rname, routeErr))
	}
	return row
}

// scoreRoundWorkload is the pseudo-workload name of the isolated
// SWAP-selection-round rows: not a circuit from the Table II suite but
// core.ScoreRoundProbe, the steady-state round fixture shared with
// BenchmarkScoreRound and the in-package alloc guard.
const scoreRoundWorkload = "score_round"

// scoreRoundEngines are the "routers" of the score_round rows: one per
// scoring engine, so the snapshot tracks the bitset default and the
// exhaustive reference at microbenchmark granularity.
var scoreRoundEngines = []string{"bitset", "exhaustive"}

// measureScoreRound benchmarks one steady-state SWAP-selection round
// under the named scoring engine. The whole-compilation columns
// (g_ori, g_add, depth, trials) are zero: the probe never applies the
// winning SWAP, so there is no routed output to measure.
func measureScoreRound(engine string) benchRow {
	var scoring core.Scoring
	switch engine {
	case "bitset":
		scoring = core.ScoringBitset
	case "exhaustive":
		scoring = core.ScoringExhaustive
	default:
		fatal(fmt.Errorf("unknown score_round engine %q", engine))
	}
	p := core.NewScoreRoundProbe(scoring)
	row := benchRow{Workload: scoreRoundWorkload, Router: engine}
	row.NsPerOp, row.AllocsPerOp, row.BytesPerOp = sampleMin(func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			p.ScoreRound()
		}
	})
	return row
}

// zeroAllocRouter reports whether a router's rows fall under the
// strict no-allocation-growth gate. The sabre backends' allocs/op is
// a fixed per-trial setup cost — the steady-state SWAP round is
// zero-alloc (PR 4's TestScoreRoundZeroAllocs) — so any growth means
// an allocation crept back into the loop and scales with circuit
// size. The baselines (greedy, astar) allocate proportionally to
// work and only get the ns/op tolerance.
func zeroAllocRouter(name string) bool {
	return name == "sabre" || name == "sabre-exhaustive"
}

// strictRow reports whether a baseline row gets the hot-path
// treatment: the tighter -sabre-tolerance on ns/op and the strict
// no-allocation-growth gate. That is every sabre-backed compilation
// row, every score_round row (zero-alloc by construction; any alloc
// there is a hot-loop leak regardless of engine), and every
// stream_throughput row — the streaming hot loop is alloc-free on a
// warm Scratch, so allocation growth there is a leak too.
func strictRow(b benchRow) bool {
	return b.Workload == scoreRoundWorkload ||
		b.Workload == streamThroughputWorkload ||
		zeroAllocRouter(b.Router)
}

// runCompare is the CI perf-regression gate: re-measure every row of
// a committed BENCH_*.json baseline on this machine/toolchain and
// fail (exit 1) when the perf trajectory regresses —
//
//   - ns/op above baseline by more than `tolerance` percent — or by
//     more than the tighter `sabreTol` percent on the strict rows
//     (sabre-backed compilations, the score_round microbenchmark, and
//     the stream_throughput streaming rows);
//   - any allocs/op growth on those same strict rows;
//   - any added-gates drift (routing is deterministic: a changed
//     g_add means the algorithm's output changed, not just its speed).
//
// `names` optionally restricts the gate to a comma-separated workload
// subset (CI uses this to keep the gate's wall-clock bounded);
// "score_round" is a valid name there like any workload.
func runCompare(file string, tolerance, sabreTol float64, names string) {
	data, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}
	var base benchSnapshot
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("%s: %w", file, err))
	}
	keep := map[string]bool{}
	for _, name := range strings.Split(names, ",") {
		if name = strings.TrimSpace(name); name != "" {
			keep[name] = true
		}
	}

	cfg := exp.DefaultConfig()
	opts := cfg.SabreOpts
	if base.Trials > 0 {
		opts.Trials = base.Trials
	}
	if base.Device != cfg.Device.Name() {
		fatal(fmt.Errorf("baseline device %q does not match gate device %q", base.Device, cfg.Device.Name()))
	}

	fmt.Printf("== perf gate: %s (captured on %s), tolerance %.0f%% ns/op (%.0f%% on strict rows), zero-alloc rows strict ==\n",
		file, base.GoVersion, tolerance, sabreTol)
	fmt.Printf("%-16s %-17s %13s %13s %7s %9s %9s  %s\n",
		"workload", "router", "base ns/op", "now ns/op", "Δ%", "base a/op", "now a/op", "verdict")

	failures := 0
	rows := 0
	matched := map[string]bool{}
	for _, b := range base.Rows {
		if len(keep) > 0 && !keep[b.Workload] {
			continue
		}
		matched[b.Workload] = true
		rows++
		var now benchRow
		switch {
		case b.Workload == scoreRoundWorkload:
			now = measureScoreRound(b.Router)
		case b.Workload == streamThroughputWorkload:
			now = measureStreamThroughput(b.Router, cfg.Device)
		default:
			bench, ok := workloads.ByName(b.Workload)
			if !ok {
				fmt.Printf("%-16s %-17s baseline workload no longer exists\n", b.Workload, b.Router)
				failures++
				continue
			}
			now = measureRow(bench, cfg.Device, opts, b.Router)
		}

		tol := tolerance
		if strictRow(b) {
			tol = sabreTol
		}
		deltaPct := 100 * (float64(now.NsPerOp) - float64(b.NsPerOp)) / float64(b.NsPerOp)
		var problems []string
		if deltaPct > tol {
			problems = append(problems, fmt.Sprintf("ns/op +%.1f%% > %.0f%%", deltaPct, tol))
		}
		if strictRow(b) && now.AllocsPerOp > b.AllocsPerOp {
			problems = append(problems, fmt.Sprintf("allocs/op %d > %d", now.AllocsPerOp, b.AllocsPerOp))
		}
		if now.AddedGates != b.AddedGates {
			problems = append(problems, fmt.Sprintf("g_add %d != %d (output drift)", now.AddedGates, b.AddedGates))
		}
		verdict := "ok"
		if len(problems) > 0 {
			verdict = "FAIL: " + strings.Join(problems, "; ")
			failures++
		}
		fmt.Printf("%-16s %-17s %13d %13d %+7.1f %9d %9d  %s\n",
			b.Workload, b.Router, b.NsPerOp, now.NsPerOp, deltaPct, b.AllocsPerOp, now.AllocsPerOp, verdict)
	}
	// A requested name with no baseline row is a misconfigured gate,
	// not a passing one: name each absentee instead of silently
	// shrinking the row set (or, with every name absent, failing with
	// a message that identifies none of them).
	var missing []string
	for name := range keep {
		if !matched[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fatal(fmt.Errorf("baseline %s has no rows for requested workload(s): %s",
			file, strings.Join(missing, ", ")))
	}
	if rows == 0 {
		fatal(fmt.Errorf("no baseline rows matched -names %q", names))
	}
	if failures > 0 {
		fatal(fmt.Errorf("perf gate: %d of %d rows regressed against %s", failures, rows, file))
	}
	fmt.Printf("perf gate: %d rows within tolerance\n", rows)
}
