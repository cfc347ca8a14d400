package main

import (
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/workloads"
)

// runFleet drives the fleet scheduler over the benchmark suite: every
// candidate device gets a deterministic (seed-derived) random
// calibration, each workload is scored across the fleet, and the
// winner compiles it under its live snapshot. The table prints one
// column of Total score per candidate (".." = circuit does not fit)
// so the dispatch choice is auditable, then the winner's routing
// outcome.
func runFleet(benches []workloads.Benchmark, specs []string, opts core.Options, workers int, seed int64) {
	if len(specs) < 2 {
		fatal(fmt.Errorf("-fleet needs at least two comma-separated device specs"))
	}
	devs := make([]*arch.Device, len(specs))
	for i, spec := range specs {
		d, err := arch.FromSpec(spec)
		if err != nil {
			fatal(fmt.Errorf("fleet: %w", err))
		}
		// Deterministic per-device calibration: same -seed, same fleet
		// order, same table.
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		if _, err := d.ApplyCalibration(arch.RandomNoise(d, 0.001, 0.05, rng)); err != nil {
			fatal(err)
		}
		devs[i] = d
	}

	opts.Seed = 0 // content-derived seeds, reproducible at any worker count
	eng := batch.NewEngine(batch.Config{Workers: workers, BaseSeed: seed})
	defer eng.Close()

	fmt.Printf("== fleet dispatch: %d workloads over %v (random calibrations, seed %d) ==\n", len(benches), specs, seed)
	fmt.Println("   (per candidate: Total score = error + 0.01*depth; lowest wins, \"..\" = does not fit)")
	fmt.Printf("%-16s %6s", "benchmark", "g_ori")
	for _, d := range devs {
		fmt.Printf(" %12s", truncName(d.Name(), 12))
	}
	fmt.Printf("  %-12s %6s %7s %7s\n", "winner", "g_add", "depth", "ms")

	wins := make(map[string]int, len(devs))
	for _, b := range benches {
		circ := b.Build()
		cands := make([]fleet.Candidate, len(devs))
		for i, d := range devs {
			cands[i] = fleet.Candidate{Device: d}
		}
		dec, err := fleet.Schedule(circ, cands, fleet.Weights{})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", b.Name, err))
		}
		res := <-eng.Submit(batch.Job{
			Circuit: circ, Device: dec.Device, Options: opts, Tag: b.Name,
			UseCalibration: true,
		})
		if res.Err != nil {
			fatal(fmt.Errorf("%s: %w", b.Name, res.Err))
		}
		rep := &res.Report

		fmt.Printf("%-16s %6d", b.Name, rep.RefGates)
		for _, s := range dec.Scores {
			if !s.Fits {
				fmt.Printf(" %12s", "..")
				continue
			}
			fmt.Printf(" %12.2f", s.Total)
		}
		fmt.Printf("  %-12s %6d %7d %7.1f\n",
			truncName(dec.Winner.Device, 12), res.AddedGates, rep.Depth,
			float64(res.Elapsed.Nanoseconds())/1e6)
		wins[dec.Winner.Device]++
	}

	fmt.Print("wins:")
	for _, d := range devs {
		fmt.Printf(" %s=%d", d.Name(), wins[d.Name()])
	}
	fmt.Println()
}

// truncName fits a device name into a fixed table column.
func truncName(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "~"
}
