package batch

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/route"
	"repro/internal/workloads"
)

// keyVariants returns jobs on c and dev whose options vary the seed,
// the trial count, the pass list, the routing backend, bridging, the
// noise model and the calibration pin.
func keyVariants(c *circuit.Circuit, dev *arch.Device) []Job {
	base := Job{Circuit: c, Device: dev, Options: core.DefaultOptions()}
	seeded, bridged, noisy := base, base, base
	seeded.Options.Seed = 7
	bridged.Options.UseBridge = true
	noisy.Options.Noise = &arch.NoiseModel{Default: 0.01, EdgeError: map[arch.Edge]float64{{A: 0, B: 1}: 0.05}}
	trials, passes, routed, calibrated := base, base, base, base
	trials.Trials = 8
	passes.Passes = []string{"peephole", " Verify"}
	routed.Route = "greedy"
	calibrated.UseCalibration = true
	return []Job{base, seeded, bridged, noisy, trials, passes, routed, calibrated}
}

// TestKeyStateMatchesFullKey: a job resuming from the key state made
// for its device and circuit gets the key of its full encoding, for
// the 26 Table II circuits on Tokyo, a 4x5 grid and a calibrated Tokyo
// under options that vary every section after the circuit.
func TestKeyStateMatchesFullKey(t *testing.T) {
	grid, err := arch.FromSpec("grid:4x5")
	if err != nil {
		t.Fatal(err)
	}
	calibrated := arch.IBMQ20Tokyo()
	if _, err := calibrated.ApplyCalibration(arch.UniformNoise(0.02)); err != nil {
		t.Fatal(err)
	}
	devs := []*arch.Device{arch.IBMQ20Tokyo(), grid, calibrated}
	for _, b := range workloads.All() {
		c := b.Build()
		for _, dev := range devs {
			ks := NewKeyState(dev, c)
			for i, job := range keyVariants(c, dev) {
				want := KeyOf(job)
				job.KeyState = ks
				if got := KeyOf(job); got != want {
					t.Fatalf("%s on %s, variant %d: resumed key %x, full key %x", c.Name(), dev.Name(), i, got[:8], want[:8])
				}
			}
		}
	}
}

// TestKeyStateIgnoredForOtherPointers: KeyOf resumes only from a state
// made for the job's own Device and Circuit pointers. A state made for
// another device, or for a structurally equal copy of the circuit or
// the device, is ignored. A forged state, made for the job's pointers
// but carrying another circuit's hash, shows which states are used.
func TestKeyStateIgnoredForOtherPointers(t *testing.T) {
	c, dev := workloads.QFT(6), arch.IBMQ20Tokyo()
	job := Job{Circuit: c, Device: dev, Options: core.DefaultOptions()}
	want := KeyOf(job)
	forged := func(d *arch.Device, circ *circuit.Circuit) *KeyState {
		ks := NewKeyState(d, circ)
		ks.state = NewKeyState(d, workloads.GHZ(6)).state
		return ks
	}

	used := job
	used.KeyState = forged(dev, c)
	if KeyOf(used) == want {
		t.Fatal("a state made for the job's own pointers was not used")
	}
	for name, ks := range map[string]*KeyState{
		"another device":        NewKeyState(arch.Line(20), c),
		"a copy of the device":  forged(arch.IBMQ20Tokyo(), c),
		"a copy of the circuit": forged(dev, c.Clone()),
		"nil":                   nil,
	} {
		other := job
		other.KeyState = ks
		if got := KeyOf(other); got != want {
			t.Fatalf("a state made for %s changed the key: %x, want %x", name, got[:8], want[:8])
		}
	}
}

// gateRouter routes like sabre; while gateArmed is set it first
// reports on gateEntered and waits for gateRelease, holding its job in
// flight.
type gateRouter struct{}

var (
	gateOnce    sync.Once
	gateMu      sync.Mutex
	gateArmed   bool
	gateEntered = make(chan struct{}, 1)
	gateRelease = make(chan struct{})
)

func (gateRouter) Name() string { return "batch-test-gate" }

func (gateRouter) Route(ctx context.Context, c *circuit.Circuit, dev *arch.Device, opts core.Options) (*core.Result, error) {
	gateMu.Lock()
	armed := gateArmed
	gateMu.Unlock()
	if armed {
		gateEntered <- struct{}{}
		<-gateRelease
	}
	return core.TrialRunner{Workers: 1}.Route(ctx, c, dev, opts)
}

// TestResultReport: every result carries metrics.Compare of the job's
// circuit and its final circuit, whether it compiled, was served from
// the cache, or joined the compile in flight.
func TestResultReport(t *testing.T) {
	gateOnce.Do(func() { route.Register("batch-test-gate", func() core.Router { return gateRouter{} }) })
	e := NewEngine(Config{Workers: 2})
	defer e.Close()
	job := Job{Circuit: workloads.QFT(6), Device: arch.IBMQ20Tokyo(), Passes: []string{"peephole"}, Route: "batch-test-gate"}
	check := func(what string, res Result) {
		t.Helper()
		if res.Err != nil {
			t.Fatalf("%s: %v", what, res.Err)
		}
		if want := metrics.Compare(job.Circuit, res.Final); res.Report != want {
			t.Fatalf("%s: report %+v, want %+v", what, res.Report, want)
		}
	}

	gateMu.Lock()
	gateArmed = true
	gateMu.Unlock()
	leader := e.Submit(job)
	<-gateEntered
	follower := e.Submit(job)
	for e.Stats().Jobs < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the follower reach the flight
	gateMu.Lock()
	gateArmed = false
	gateMu.Unlock()
	gateRelease <- struct{}{}

	miss, joined := <-leader, <-follower
	check("miss", miss)
	check("single-flight follower", joined)
	if miss.CacheHit || !joined.CacheHit || e.Stats().Shared != 1 {
		t.Fatalf("leader hit %v, follower hit %v, %d shared: want a miss and a follower", miss.CacheHit, joined.CacheHit, e.Stats().Shared)
	}
	hit := <-e.Submit(job)
	check("cache hit", hit)
	if !hit.CacheHit || e.Stats().Hits != 1 {
		t.Fatal("the third compile missed the cache")
	}
	if miss.Report.AddedGates != miss.Report.Gates-miss.Report.RefGates || miss.Report.RefGates != job.Circuit.NumGates() {
		t.Fatalf("report %+v does not measure the job's %d gates", miss.Report, job.Circuit.NumGates())
	}
}
