package pipeline

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/qasm"
	"repro/internal/verify"
	"repro/internal/workloads"
)

// cxCircuit returns a seeded CX-only circuit, the linear fragment over
// which routing equivalence is exactly decidable.
func cxCircuit(n, gates int, seed int64) *circuit.Circuit {
	c := workloads.RandomCircuit("cxonly", n, gates, 1.0, seed)
	out := circuit.NewNamed(c.Name(), c.NumQubits())
	for _, g := range c.Gates() {
		if g.Kind == circuit.KindCX {
			out.Append(g)
		}
	}
	return out
}

// population runs tr over circ's SABRE trials and returns every trial
// of the population it selected over, indexed by trial, with the
// depths. Only the winner's circuit is built.
func population(ctx context.Context, tr core.TrialRunner, circ *circuit.Circuit, dev *arch.Device, opts core.Options) ([]*core.Result, []int, error) {
	p, err := core.Prepare(circ, dev, opts)
	if err != nil {
		return nil, nil, err
	}
	results, depths := make([]*core.Result, tr.Trials), make([]int, tr.Trials)
	best, err := tr.Run(ctx, func(ctx context.Context, trial int, s *core.Scratch) (*core.Result, int, error) {
		res, depth, err := p.RunTrialCtx(ctx, trial, s)
		results[trial], depths[trial] = res, depth
		return res, depth, err
	})
	if err != nil {
		return nil, nil, err
	}
	return results[:best.TrialsRun], depths[:best.TrialsRun], nil
}

func TestTrialRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := cxCircuit(16, 120, 11)
	opts := core.DefaultOptions()
	opts.Seed = 42

	var ref string
	for _, workers := range []int{1, 2, 3, 8} {
		tr := core.TrialRunner{Trials: 8, Workers: workers}
		res, err := tr.Route(context.Background(), circ, dev, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := qasm.Format(res.Circuit)
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Fatalf("workers=%d produced different routed QASM than workers=1", workers)
		}
	}
}

func TestEveryTrialOutputVerifies(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := cxCircuit(14, 90, 5)
	opts := core.DefaultOptions()
	opts.Seed = 7

	tr := core.TrialRunner{Trials: 6, Workers: 3}
	results, depths, err := population(context.Background(), tr, circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 || len(depths) != 6 {
		t.Fatalf("expected 6 trial results, got %d/%d", len(results), len(depths))
	}
	for trial, res := range results {
		// Trials other than the winner leave their circuits unbuilt;
		// selecting one trial on its own builds it, so every trial's
		// output is checked, not only the winner's.
		if _, err := core.SelectBest(results[trial:trial+1], depths[trial:trial+1]); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := verify.CheckRouted(circ, res.Circuit, res.InitialLayout, res.FinalLayout); err != nil {
			t.Errorf("trial %d output failed GF(2) verification: %v", trial, err)
		}
		if err := verify.HardwareCompliant(res.Circuit.DecomposeSwaps(), dev.Connected); err != nil {
			t.Errorf("trial %d output not hardware compliant: %v", trial, err)
		}
	}
}

// TestRouteRetainsNoPrepared: once a pooled run has selected its
// winner, nothing reachable from the winning Result references the
// trials' core.Prepared, and through it the DAG, so a result cache or
// a retained job holds the routed circuit only. The test runs Route's
// body after Prepare so it can hold a weak pointer to the Prepared.
func TestRouteRetainsNoPrepared(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	p, err := core.Prepare(workloads.QFT(12), dev, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := weak.Make(p)
	best, err := core.TrialRunner{Trials: 4, Workers: 2}.Run(context.Background(), p.RunTrialCtx)
	if err != nil {
		t.Fatal(err)
	}
	p = nil
	runtime.GC()
	if w.Value() != nil {
		t.Error("the Prepared outlived Route while its winner is reachable")
	}
	if best.Circuit == nil || best.Circuit.NumGates() == 0 {
		t.Fatal("winner has no circuit")
	}
	runtime.KeepAlive(best)
}

func TestBestOfNNoWorseThanSingleTrial(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	opts := core.DefaultOptions()
	opts.Seed = 1

	queko, _ := workloads.KnownOptimal(dev, 300, 3)
	for name, circ := range map[string]*circuit.Circuit{
		"queko_tokyo": queko,
		"qft_16":      workloads.QFT(16),
	} {
		single := core.TrialRunner{Trials: 1}
		one, err := single.Route(context.Background(), circ, dev, opts)
		if err != nil {
			t.Fatalf("%s single: %v", name, err)
		}
		multi := core.TrialRunner{Trials: 8, Workers: 4}
		eight, err := multi.Route(context.Background(), circ, dev, opts)
		if err != nil {
			t.Fatalf("%s multi: %v", name, err)
		}
		if eight.AddedGates > one.AddedGates {
			t.Errorf("%s: best-of-8 added %d gates, single trial added %d",
				name, eight.AddedGates, one.AddedGates)
		}
	}
}

func TestTrialRunnerMatchesCoreCompile(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(12)
	opts := core.DefaultOptions()
	opts.Seed = 9

	want, err := core.Compile(circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := core.TrialRunner{Workers: 4} // Trials taken from opts
	got, err := tr.Route(context.Background(), circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if qasm.Format(got.Circuit) != qasm.Format(want.Circuit) {
		t.Fatal("TrialRunner result diverged from core.Compile for identical options")
	}
	if got.AddedGates != want.AddedGates || got.SwapCount != want.SwapCount {
		t.Fatalf("accounting diverged: runner %d/%d vs compile %d/%d",
			got.AddedGates, got.SwapCount, want.AddedGates, want.SwapCount)
	}
}

func TestTrialRunnerCancellation(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := core.TrialRunner{Trials: 4}
	if _, err := tr.Route(ctx, circ, dev, core.DefaultOptions()); err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	m, err := Build("route", "peephole", "basis", "schedule", "verify")
	if err != nil {
		t.Fatal(err)
	}
	dev := arch.IBMQ20Tokyo()
	opts := core.DefaultOptions()
	opts.Seed = 3
	pc, err := m.Compile(context.Background(), workloads.QFT(10), dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Result == nil {
		t.Fatal("route pass did not record a result")
	}
	if pc.Schedule == nil || pc.Opt == nil {
		t.Fatal("schedule/peephole passes did not record outputs")
	}
	want := []string{"route", "peephole", "basis", "schedule", "verify"}
	if len(pc.Metrics) != len(want) {
		t.Fatalf("expected %d pass metrics, got %d", len(want), len(pc.Metrics))
	}
	for i, met := range pc.Metrics {
		if met.Pass != want[i] {
			t.Errorf("metric %d: pass %q, want %q", i, met.Pass, want[i])
		}
		if met.Gates <= 0 || met.Depth <= 0 {
			t.Errorf("metric %d (%s): empty snapshot %+v", i, met.Pass, met)
		}
	}
	if err := verify.HardwareCompliant(pc.Circuit.DecomposeSwaps(), dev.Connected); err != nil {
		t.Fatalf("pipeline output not compliant: %v", err)
	}
}

func TestParsePassAndSource(t *testing.T) {
	const src = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
cx q[0], q[1];
cx q[1], q[2];
cx q[0], q[2];
`
	m, err := Build("parse", "route", "verify")
	if err != nil {
		t.Fatal(err)
	}
	pc := &Ctx{Source: src, Device: arch.Line(3), Options: core.DefaultOptions()}
	if err := m.Run(pc); err != nil {
		t.Fatal(err)
	}
	if pc.Original == nil || pc.Original.NumGates() != 3 {
		t.Fatalf("parse pass did not produce the 3-gate circuit")
	}
}

func TestLayoutThenRouteUsesLayout(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(8)
	opts := core.DefaultOptions()
	opts.Seed = 5

	m, err := Build("layout", "route", "verify")
	if err != nil {
		t.Fatal(err)
	}
	pc, err := m.Compile(context.Background(), circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Layout.Size() != dev.NumQubits() {
		t.Fatalf("layout pass produced size-%d layout", pc.Layout.Size())
	}
	for q, p := range pc.Layout.LogicalToPhysical() {
		if pc.Result.InitialLayout[q] != p {
			t.Fatalf("route pass ignored the layout pass output at logical %d", q)
		}
	}
}

func TestBaselineRoutersDropIn(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := cxCircuit(10, 60, 2)
	for _, name := range []string{"route:greedy", "route:astar"} {
		m, err := Build(name, "verify")
		if err != nil {
			t.Fatal(err)
		}
		pc, err := m.Compile(context.Background(), circ, dev, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pc.Metrics[0].Pass != name {
			t.Fatalf("%s: metric named %q", name, pc.Metrics[0].Pass)
		}
	}
}

func TestBuildRejectsUnknownPass(t *testing.T) {
	if _, err := Build("route", "nonsense"); err == nil {
		t.Fatal("expected error for unknown pass")
	}
	if _, err := Build("route:quantum-annealer"); err == nil {
		t.Fatal("expected error for unknown router")
	}
	if err := PostRouting([]string{"peephole", "verify"}); err != nil {
		t.Fatal(err)
	}
	if err := PostRouting([]string{"route"}); err == nil {
		t.Fatal("route must not be accepted as a post-routing pass")
	}
}

func TestCalibratePassPinsSnapshot(t *testing.T) {
	dev := arch.Ring(4)
	circ := cxCircuit(4, 12, 3)

	// Uncalibrated device: the pass is a no-op.
	m, err := Build("calibrate", "route", "verify")
	if err != nil {
		t.Fatal(err)
	}
	pc, err := m.Compile(context.Background(), circ, dev, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pc.CalVersion != 0 || pc.Options.Noise != nil {
		t.Fatal("calibrate pass must be a no-op on an uncalibrated device")
	}

	snap, err := dev.ApplyCalibration(arch.UniformNoise(0.02))
	if err != nil {
		t.Fatal(err)
	}
	pc, err = m.Compile(context.Background(), circ, dev, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pc.CalVersion != snap.Version {
		t.Fatalf("CalVersion = %d, want %d", pc.CalVersion, snap.Version)
	}
	if pc.Options.Noise != snap.Model {
		t.Fatal("calibrate pass did not substitute the snapshot's noise model")
	}
	if pc.Metrics[0].Pass != "calibrate" {
		t.Fatalf("first metric is %q, want calibrate", pc.Metrics[0].Pass)
	}
}
