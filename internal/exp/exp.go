// Package exp is the experiment harness: it drives the SABRE core and
// the baselines over the Table II workload suite and renders the
// paper's tables and figure series. cmd/benchtab and bench_test.go are
// thin wrappers around this package.
package exp

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/baseline"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/verify"
	"repro/internal/workloads"
)

// Config selects the device and algorithm settings for a run.
type Config struct {
	Device    *arch.Device
	SabreOpts core.Options
	AStarOpts baseline.AStarOptions

	// RunAStar enables the BKA comparison columns (expensive on the
	// larger benchmarks; the budget turns blow-ups into OOM rows).
	RunAStar bool
	// RunGreedy enables the naive-router comparison column.
	RunGreedy bool
	// Verify re-checks every routed circuit for hardware compliance
	// (and GF(2) equivalence when the source circuit is linear).
	Verify bool
}

// DefaultConfig mirrors the paper's evaluation setup on the Q20 chip.
func DefaultConfig() Config {
	return Config{
		Device:    arch.IBMQ20Tokyo(),
		SabreOpts: core.DefaultOptions(),
		AStarOpts: baseline.DefaultAStarOptions(),
		RunAStar:  true,
		RunGreedy: true,
		Verify:    true,
	}
}

// Table2Row is one row of the reproduced Table II.
type Table2Row struct {
	Bench workloads.Benchmark
	Gori  int
	DOri  int

	BKAAdded int // g_add for BKA; -1 when OOM or disabled
	BKAOOM   bool
	BKATime  time.Duration
	BKANodes int

	GreedyAdded int // -1 when disabled

	SabreFirst int // g_la: after first traversal
	SabreAdded int // g_op: after reverse traversal(s)
	SabreTime  time.Duration
	SabreDepth int

	Speedup float64 // BKATime / SabreTime; 0 when unavailable
}

// RunTable2 executes the Table II experiment over the given benchmarks.
func RunTable2(benches []workloads.Benchmark, cfg Config) ([]Table2Row, error) {
	rows := make([]Table2Row, 0, len(benches))
	for _, b := range benches {
		row, err := runOne(b, cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", b.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runOne(b workloads.Benchmark, cfg Config) (Table2Row, error) {
	circ := b.Build()
	orig := metrics.Measure(circ)
	row := Table2Row{
		Bench:       b,
		Gori:        orig.Gates,
		DOri:        orig.Depth,
		BKAAdded:    -1,
		GreedyAdded: -1,
	}

	res, err := core.Compile(circ, cfg.Device, cfg.SabreOpts)
	if err != nil {
		return row, err
	}
	if err := checkRouted(circ, res.Circuit, res.InitialLayout, res.FinalLayout, cfg); err != nil {
		return row, err
	}
	row.SabreFirst = res.FirstTraversalAdded
	row.SabreAdded = res.AddedGates
	row.SabreTime = res.Elapsed
	row.SabreDepth = res.Circuit.DecomposeSwaps().Depth()

	if cfg.RunGreedy {
		g, err := baseline.GreedyCompile(circ, cfg.Device)
		if err != nil {
			return row, err
		}
		if err := checkRouted(circ, g.Circuit, g.InitialLayout, g.FinalLayout, cfg); err != nil {
			return row, err
		}
		row.GreedyAdded = g.AddedGates
	}

	if cfg.RunAStar {
		a, err := baseline.AStarCompile(circ, cfg.Device, cfg.AStarOpts)
		switch {
		case errors.Is(err, baseline.ErrBudget):
			row.BKAOOM = true
		case err != nil:
			return row, err
		default:
			if err := checkRouted(circ, a.Circuit, a.InitialLayout, a.FinalLayout, cfg); err != nil {
				return row, err
			}
			row.BKAAdded = a.AddedGates
			row.BKATime = a.Elapsed
			row.BKANodes = a.NodesExpanded
			if row.SabreTime > 0 {
				row.Speedup = float64(row.BKATime) / float64(row.SabreTime)
			}
		}
	}
	return row, nil
}

func checkRouted(orig, routed *circuit.Circuit, init, final []int, cfg Config) error {
	if !cfg.Verify {
		return nil
	}
	if err := verify.HardwareCompliant(routed, cfg.Device.Connected); err != nil {
		return err
	}
	for _, g := range orig.Gates() {
		if g.Kind != circuit.KindCX && g.Kind != circuit.KindSwap {
			return nil // non-linear circuit: compliance check only
		}
	}
	return verify.CheckRouted(orig, routed, init, final)
}

// FormatTable2 renders rows in the layout of the paper's Table II.
func FormatTable2(rows []Table2Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %-15s %3s %7s | %8s %9s | %8s | %7s %7s %9s | %8s %6s\n",
		"type", "name", "n", "g_ori", "BKA_gadd", "BKA_t(s)", "greedy", "g_la", "g_op", "sabre_t(s)", "t_ratio", "dg")
	fmt.Fprintln(&sb, strings.Repeat("-", 120))
	for _, r := range rows {
		bka := "OOM"
		bkat := "-"
		if !r.BKAOOM && r.BKAAdded >= 0 {
			bka = fmt.Sprintf("%d", r.BKAAdded)
			bkat = fmt.Sprintf("%.3f", r.BKATime.Seconds())
		} else if !r.BKAOOM {
			bka = "-"
		}
		greedy := "-"
		if r.GreedyAdded >= 0 {
			greedy = fmt.Sprintf("%d", r.GreedyAdded)
		}
		ratio := "-"
		if r.Speedup > 0 {
			ratio = fmt.Sprintf("%.2f", r.Speedup)
		}
		dg := "-"
		if r.BKAAdded >= 0 {
			dg = fmt.Sprintf("%+d", r.BKAAdded-r.SabreAdded)
		}
		fmt.Fprintf(&sb, "%-6s %-15s %3d %7d | %8s %9s | %8s | %7d %7d %9.3f | %8s %6s\n",
			r.Bench.Class, r.Bench.Name, r.Bench.N, r.Gori,
			bka, bkat, greedy,
			r.SabreFirst, r.SabreAdded, r.SabreTime.Seconds(), ratio, dg)
	}
	return sb.String()
}

// Fig8Point is one (δ, normalized gates, normalized depth) sample of
// the Figure 8 trade-off series for one benchmark.
type Fig8Point struct {
	Delta     float64
	NormGates float64 // g_tot / g_ori
	NormDepth float64 // d_out / d_ori
	Gates     int
	Depth     int
}

// DefaultFig8Deltas spans the regime the paper sweeps (δ from 0.001 up;
// beyond ~0.1 both metrics degrade, §V-C).
func DefaultFig8Deltas() []float64 {
	return []float64{0.0001, 0.001, 0.003, 0.01, 0.03, 0.1}
}

// RunFig8 sweeps the decay parameter δ for one benchmark and returns
// the trade-off curve (Figure 8's series for that benchmark).
func RunFig8(b workloads.Benchmark, deltas []float64, cfg Config) ([]Fig8Point, error) {
	circ := b.Build()
	orig := metrics.Measure(circ)
	pts := make([]Fig8Point, 0, len(deltas))
	for _, d := range deltas {
		opts := cfg.SabreOpts
		opts.Heuristic = core.HeuristicDecay
		opts.DecayDelta = d
		res, err := core.Compile(circ, cfg.Device, opts)
		if err != nil {
			return nil, fmt.Errorf("exp: fig8 %s δ=%g: %w", b.Name, d, err)
		}
		m := metrics.Measure(res.Circuit)
		pts = append(pts, Fig8Point{
			Delta:     d,
			NormGates: float64(m.Gates) / float64(orig.Gates),
			NormDepth: float64(m.Depth) / float64(orig.Depth),
			Gates:     m.Gates,
			Depth:     m.Depth,
		})
	}
	return pts, nil
}

// FormatFig8 renders one benchmark's sweep.
func FormatFig8(name string, pts []Fig8Point) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: delta -> (gates g_tot/g_ori, depth d/d_ori)\n", name)
	for _, p := range pts {
		fmt.Fprintf(&sb, "  δ=%-7g g=%5d (%.3f)   d=%5d (%.3f)\n", p.Delta, p.Gates, p.NormGates, p.Depth, p.NormDepth)
	}
	return sb.String()
}

// SearchSpaceRow is one device-size point of the search-space
// experiment (E6): the paper's §IV-C1 complexity argument says SABRE
// scores O(N) SWAP candidates per step while mapping-based search
// explores O(exp(N)) states. We measure both directly.
type SearchSpaceRow struct {
	N             int     // device qubits
	Edges         int     // device couplers (the O(N) bound)
	AvgCandidates float64 // mean SWAP candidates scored per round
	MaxCandidates int
	MaxFront      int
	AStarMaxLayer int // largest per-layer node count for the baseline
	AStarOOM      bool
}

// RunSearchSpace routes a CNOT-dense random workload on square grids of
// growing size, recording the candidate-list statistics (and the A*
// baseline's node counts for contrast).
func RunSearchSpace(sides []int, cfg Config) ([]SearchSpaceRow, error) {
	rows := make([]SearchSpaceRow, 0, len(sides))
	for _, side := range sides {
		dev := arch.Grid(side, side)
		n := side * side
		circ := workloads.RandomCircuit(fmt.Sprintf("ss_%d", n), n, 30*n, 0.9, int64(side))
		opts := cfg.SabreOpts
		opts.Trials = 1
		res, err := core.Compile(circ, dev, opts)
		if err != nil {
			return nil, fmt.Errorf("exp: search space n=%d: %w", n, err)
		}
		row := SearchSpaceRow{
			N:             n,
			Edges:         len(dev.Edges()),
			AvgCandidates: res.Stats.AvgCandidates(),
			MaxCandidates: res.Stats.MaxCandidates,
			MaxFront:      res.Stats.MaxFront,
		}
		if cfg.RunAStar {
			a, err := baseline.AStarCompile(circ, dev, cfg.AStarOpts)
			switch {
			case errors.Is(err, baseline.ErrBudget):
				row.AStarOOM = true
			case err != nil:
				return nil, err
			default:
				row.AStarMaxLayer = a.MaxLayerNodes
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatSearchSpace renders the E6 table.
func FormatSearchSpace(rows []SearchSpaceRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%5s %6s | %10s %8s %8s | %14s\n",
		"N", "|E|", "avg_cand", "max_cand", "max_F", "astar_maxlayer")
	fmt.Fprintln(&sb, strings.Repeat("-", 65))
	for _, r := range rows {
		al := "-"
		if r.AStarOOM {
			al = "OOM"
		} else if r.AStarMaxLayer > 0 {
			al = fmt.Sprintf("%d", r.AStarMaxLayer)
		}
		fmt.Fprintf(&sb, "%5d %6d | %10.1f %8d %8d | %14s\n",
			r.N, r.Edges, r.AvgCandidates, r.MaxCandidates, r.MaxFront, al)
	}
	return sb.String()
}

// OptimalityRow is one sample of the optimality-gap experiment (E7):
// on QUEKO-style benchmarks a zero-SWAP solution exists by
// construction, so a mapper's added gates are pure optimality gap.
// This extends the paper's small-benchmark observation ("SABRE finds
// the optimal mapping for small benchmarks") to device-filling
// instances with a known optimum.
type OptimalityRow struct {
	Seed        int64
	Gates       int
	SabreAdded  int
	GreedyAdded int
}

// RunOptimalityGap measures SABRE (and greedy) on known-optimal
// instances over the configured device.
func RunOptimalityGap(gates int, seeds []int64, cfg Config) ([]OptimalityRow, error) {
	rows := make([]OptimalityRow, 0, len(seeds))
	for _, seed := range seeds {
		circ, _ := workloads.KnownOptimal(cfg.Device, gates, seed)
		opts := cfg.SabreOpts
		opts.Seed = seed
		res, err := core.Compile(circ, cfg.Device, opts)
		if err != nil {
			return nil, fmt.Errorf("exp: optimality seed %d: %w", seed, err)
		}
		if err := checkRouted(circ, res.Circuit, res.InitialLayout, res.FinalLayout, cfg); err != nil {
			return nil, err
		}
		row := OptimalityRow{Seed: seed, Gates: gates, SabreAdded: res.AddedGates, GreedyAdded: -1}
		if cfg.RunGreedy {
			g, err := baseline.GreedyCompile(circ, cfg.Device)
			if err != nil {
				return nil, err
			}
			row.GreedyAdded = g.AddedGates
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatOptimality renders the E7 table with the mean gap.
func FormatOptimality(rows []OptimalityRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%6s %7s | %11s %12s   (optimum is 0 by construction)\n",
		"seed", "g_ori", "sabre_gadd", "greedy_gadd")
	fmt.Fprintln(&sb, strings.Repeat("-", 70))
	var sumS, sumG, nG int
	for _, r := range rows {
		g := "-"
		if r.GreedyAdded >= 0 {
			g = fmt.Sprintf("%d", r.GreedyAdded)
			sumG += r.GreedyAdded
			nG++
		}
		fmt.Fprintf(&sb, "%6d %7d | %11d %12s\n", r.Seed, r.Gates, r.SabreAdded, g)
		sumS += r.SabreAdded
	}
	if len(rows) > 0 {
		fmt.Fprintf(&sb, "mean gap: sabre %.1f", float64(sumS)/float64(len(rows)))
		if nG > 0 {
			fmt.Fprintf(&sb, ", greedy %.1f", float64(sumG)/float64(nG))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ScalingRow is one size point of the scalability experiment (E3):
// SABRE runtime vs the A* baseline's runtime/search size on QFT.
type ScalingRow struct {
	N          int
	Gates      int
	SabreTime  time.Duration
	SabreAdded int
	AStarTime  time.Duration
	AStarNodes int
	AStarAdded int
	AStarOOM   bool
}

// RunScalingQFT runs qft_n for each n, comparing SABRE against A*.
func RunScalingQFT(sizes []int, cfg Config) ([]ScalingRow, error) {
	rows := make([]ScalingRow, 0, len(sizes))
	for _, n := range sizes {
		circ := workloads.QFT(n)
		row := ScalingRow{N: n, Gates: circ.NumGates()}
		res, err := core.Compile(circ, cfg.Device, cfg.SabreOpts)
		if err != nil {
			return nil, fmt.Errorf("exp: scaling qft_%d: %w", n, err)
		}
		row.SabreTime = res.Elapsed
		row.SabreAdded = res.AddedGates
		if cfg.RunAStar {
			a, err := baseline.AStarCompile(circ, cfg.Device, cfg.AStarOpts)
			switch {
			case errors.Is(err, baseline.ErrBudget):
				row.AStarOOM = true
			case err != nil:
				return nil, fmt.Errorf("exp: scaling qft_%d A*: %w", n, err)
			default:
				row.AStarTime = a.Elapsed
				row.AStarNodes = a.NodesExpanded
				row.AStarAdded = a.AddedGates
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatScaling renders the scalability table.
func FormatScaling(rows []ScalingRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%4s %7s | %10s %9s | %10s %10s %9s\n",
		"n", "g_ori", "sabre_t(s)", "s_gadd", "astar_t(s)", "nodes", "a_gadd")
	fmt.Fprintln(&sb, strings.Repeat("-", 75))
	for _, r := range rows {
		at, nodes, ag := "-", "-", "-"
		if r.AStarOOM {
			at, nodes, ag = "OOM", "OOM", "OOM"
		} else if r.AStarTime > 0 || r.AStarNodes > 0 {
			at = fmt.Sprintf("%.3f", r.AStarTime.Seconds())
			nodes = fmt.Sprintf("%d", r.AStarNodes)
			ag = fmt.Sprintf("%d", r.AStarAdded)
		}
		fmt.Fprintf(&sb, "%4d %7d | %10.3f %9d | %10s %10s %9s\n",
			r.N, r.Gates, r.SabreTime.Seconds(), r.SabreAdded, at, nodes, ag)
	}
	return sb.String()
}
