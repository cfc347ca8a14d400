// Command sabremap compiles an OpenQASM 2.0 circuit onto a NISQ device
// with SABRE, emitting hardware-compliant QASM.
//
// Usage:
//
//	sabremap -in circuit.qasm -device q20 -out routed.qasm
//	sabremap -in circuit.qasm -device grid:4x5 -decompose -stats
//	sabremap -in circuit.qasm -trials 8 -passes peephole,basis -stats
//	sabremap -in circuit.qasm -route anneal -verify
//
// Devices: q20 (IBM Q20 Tokyo), qx5, line:N, ring:N, grid:RxC, full:N.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	sabre "repro"
)

func main() {
	var (
		in        = flag.String("in", "", "input QASM file (default stdin)")
		out       = flag.String("out", "", "output QASM file (default stdout)")
		deviceStr = flag.String("device", "q20", "target device: q20|qx5|line:N|ring:N|grid:RxC|full:N")
		trials    = flag.Int("trials", 5, "random initial-mapping restarts")
		travs     = flag.Int("traversals", 3, "forward/backward traversals per trial (odd)")
		delta     = flag.Float64("delta", 0.001, "decay increment δ (depth/gate trade-off)")
		heur      = flag.String("heuristic", "decay", "cost function: basic|lookahead|decay")
		routeName = flag.String("route", "", "routing backend: sabre|greedy|astar|anneal (default sabre)")
		bridge    = flag.Bool("bridge", false, "enable 4-CNOT bridges for non-recurring distance-2 CNOTs")
		seed      = flag.Int64("seed", 1, "PRNG seed")
		decompose = flag.Bool("decompose", false, "expand SWAPs into 3 CNOTs in the output")
		stats     = flag.Bool("stats", false, "print compilation statistics to stderr")
		doVerify  = flag.Bool("verify", false, "verify the routed circuit (GF(2) for CNOT circuits)")
		passes    = flag.String("passes", "", "post-routing pipeline passes, comma-separated: basis|peephole|schedule|verify")
	)
	flag.Parse()

	if err := run(*in, *out, *deviceStr, *routeName, *trials, *travs, *delta, *heur, *seed, *bridge, *decompose, *stats, *doVerify, *passes); err != nil {
		fmt.Fprintln(os.Stderr, "sabremap:", err)
		os.Exit(1)
	}
}

func run(in, out, deviceStr, routeName string, trials, travs int, delta float64, heur string, seed int64, bridge, decompose, stats, doVerify bool, passes string) error {
	var circ *sabre.Circuit
	var err error
	if in == "" {
		circ, err = parseStdin()
	} else {
		circ, err = sabre.ParseQASMFile(in)
	}
	if err != nil {
		return err
	}

	dev, err := parseDevice(deviceStr)
	if err != nil {
		return err
	}

	opts := sabre.DefaultOptions()
	opts.Trials = trials
	opts.Traversals = travs
	opts.DecayDelta = delta
	opts.Seed = seed
	opts.UseBridge = bridge
	switch heur {
	case "basic":
		opts.Heuristic = sabre.HeuristicBasic
	case "lookahead":
		opts.Heuristic = sabre.HeuristicLookahead
	case "decay":
		opts.Heuristic = sabre.HeuristicDecay
	default:
		return fmt.Errorf("unknown heuristic %q", heur)
	}

	// Compilation runs as a pass pipeline: the best-of-N routing stage
	// plus any requested post-routing passes. -verify appends the
	// verify pass, so what gets checked is the circuit actually
	// emitted, after every requested rewrite.
	var extra []string
	for _, p := range strings.Split(passes, ",") {
		if p = strings.TrimSpace(p); p != "" {
			extra = append(extra, p)
		}
	}
	if err := sabre.ValidatePostRoutingPasses(extra); err != nil {
		return err
	}
	if doVerify && (len(extra) == 0 || extra[len(extra)-1] != "verify") {
		extra = append(extra, "verify")
	}
	routeStage := "route"
	if routeName != "" {
		routeStage = "route:" + routeName
	}
	pm, err := sabre.BuildPipeline(append([]string{routeStage}, extra...)...)
	if err != nil {
		return err
	}
	pc, err := pm.Compile(context.Background(), circ, dev, opts)
	if err != nil {
		return err
	}
	res := pc.Result

	if doVerify {
		linear := true
		for _, g := range circ.Gates() {
			if g.Kind != sabre.KindCX && g.Kind != sabre.KindSwap {
				linear = false
				break
			}
		}
		if linear {
			fmt.Fprintln(os.Stderr, "verified: output circuit is hardware-compliant; routing is GF(2)-equivalent to the input")
		} else {
			fmt.Fprintln(os.Stderr, "verified: output circuit is hardware-compliant (input has non-linear gates; equivalence check skipped)")
		}
	}

	output := pc.Circuit
	if decompose {
		output = output.DecomposeSwaps()
	}

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := sabre.WriteQASM(w, output); err != nil {
		return err
	}

	if stats {
		for _, m := range pc.Metrics {
			fmt.Fprintf(os.Stderr, "pass %-10s %10s  gates=%d depth=%d\n", m.Pass, m.Elapsed, m.Gates, m.Depth)
		}
		rep := sabre.CompareCircuits(circ, pc.Circuit)
		em := sabre.Q20ErrorModel()
		fmt.Fprintf(os.Stderr, "device         %s\n", dev)
		fmt.Fprintf(os.Stderr, "input          n=%d gates=%d depth=%d\n", circ.NumQubits(), rep.RefGates, rep.RefDepth)
		fmt.Fprintf(os.Stderr, "output         gates=%d depth=%d\n", rep.Gates, rep.Depth)
		fmt.Fprintf(os.Stderr, "swaps inserted %d (added gates %d)\n", res.SwapCount, res.AddedGates)
		fmt.Fprintf(os.Stderr, "est. fidelity  %.4f (input %.4f)\n",
			sabre.EstimateFidelity(res.Circuit, em), sabre.EstimateFidelity(circ, em))
		fmt.Fprintf(os.Stderr, "compile time   %s\n", res.Elapsed)
		fmt.Fprintf(os.Stderr, "initial layout %v\n", res.InitialLayout[:circ.NumQubits()])
	}
	return nil
}

func parseStdin() (*sabre.Circuit, error) {
	data, err := os.ReadFile("/dev/stdin")
	if err != nil {
		return nil, fmt.Errorf("reading stdin: %w", err)
	}
	return sabre.ParseQASM(string(data))
}

func parseDevice(s string) (*sabre.Device, error) {
	switch s {
	case "q20":
		return sabre.IBMQ20Tokyo(), nil
	case "qx5":
		return sabre.IBMQX5(), nil
	}
	name, arg, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("unknown device %q", s)
	}
	switch name {
	case "line", "ring", "full":
		n, err := strconv.Atoi(arg)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad size in device %q", s)
		}
		switch name {
		case "line":
			return sabre.LineDevice(n), nil
		case "ring":
			return sabre.RingDevice(n), nil
		default:
			return fullDevice(n), nil
		}
	case "grid":
		r, c, ok := strings.Cut(arg, "x")
		if !ok {
			return nil, fmt.Errorf("grid device needs RxC, got %q", s)
		}
		rows, err1 := strconv.Atoi(r)
		cols, err2 := strconv.Atoi(c)
		if err1 != nil || err2 != nil || rows < 1 || cols < 1 {
			return nil, fmt.Errorf("bad grid size %q", s)
		}
		return sabre.GridDevice(rows, cols), nil
	}
	return nil, fmt.Errorf("unknown device %q", s)
}

func fullDevice(n int) *sabre.Device {
	var edges []sabre.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, sabre.CouplingEdge(i, j))
		}
	}
	dev, err := sabre.NewDevice("full", n, edges)
	if err != nil {
		panic(err) // unreachable for n >= 1
	}
	return dev
}
