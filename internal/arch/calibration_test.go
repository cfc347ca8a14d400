package arch

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCalibrationSnapshotLifecycle(t *testing.T) {
	dev := Grid(3, 3)
	if dev.Calibration() != nil {
		t.Fatal("fresh device must have nil calibration")
	}

	m1 := &NoiseModel{Default: 0.01, EdgeError: map[Edge]float64{NewEdge(0, 1): 0.05}}
	s1, err := dev.ApplyCalibration(m1)
	if err != nil {
		t.Fatalf("ApplyCalibration: %v", err)
	}
	if s1.Version != 1 {
		t.Fatalf("first snapshot version = %d, want 1", s1.Version)
	}
	if got := dev.Calibration(); got != s1 {
		t.Fatal("Calibration() did not return the installed snapshot")
	}
	if s1.Model == m1 {
		t.Fatal("snapshot must hold a clone, not the caller's model")
	}
	if s1.Model.Error(NewEdge(0, 1)) != 0.05 || s1.Model.Default != 0.01 {
		t.Fatal("clone does not match the applied model")
	}

	// The snapshot is immune to later mutation of the caller's model.
	m1.EdgeError[NewEdge(0, 1)] = 0.9
	m1.Default = 0.5
	if s1.Model.Error(NewEdge(0, 1)) != 0.05 || s1.Model.Default != 0.01 {
		t.Fatal("mutating the applied model leaked into the snapshot")
	}

	s2, err := dev.ApplyCalibration(&NoiseModel{Default: 0.02})
	if err != nil {
		t.Fatalf("second ApplyCalibration: %v", err)
	}
	if s2.Version != 2 {
		t.Fatalf("second snapshot version = %d, want 2", s2.Version)
	}
	if dev.Calibration() != s2 {
		t.Fatal("swap did not install the new snapshot")
	}
	if s2.Applied.Before(s1.Applied) {
		t.Fatal("snapshot timestamps out of order")
	}
}

func TestApplyCalibrationValidation(t *testing.T) {
	dev := Line(4)
	good, err := dev.ApplyCalibration(UniformNoise(0.01))
	if err != nil {
		t.Fatalf("valid calibration rejected: %v", err)
	}
	cases := []struct {
		name string
		m    *NoiseModel
		want string
	}{
		{"nil model", nil, "nil calibration"},
		{"nan default", &NoiseModel{Default: math.NaN()}, "not finite"},
		{"default too high", &NoiseModel{Default: 1.0}, "outside [0, 1)"},
		{"negative edge rate", &NoiseModel{EdgeError: map[Edge]float64{NewEdge(0, 1): -0.1}}, "outside [0, 1)"},
		{"unknown edge", &NoiseModel{EdgeError: map[Edge]float64{NewEdge(0, 3): 0.1}}, "no coupler (0,3)"},
	}
	for _, tc := range cases {
		if _, err := dev.ApplyCalibration(tc.m); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the problem (want %q)", tc.name, err, tc.want)
		}
	}
	if dev.Calibration() != good {
		t.Fatal("rejected calibrations must leave the current snapshot in place")
	}
}

// TestValidateCalibrationDeterministicError pins the validation walk
// to sorted edge order: the checker used to range the EdgeError map
// directly, so a model with several problems produced a randomly
// chosen error message — the same bad request could 400 with
// different bodies on consecutive submissions.
func TestValidateCalibrationDeterministicError(t *testing.T) {
	dev := Line(4)
	m := &NoiseModel{EdgeError: map[Edge]float64{
		NewEdge(0, 2): 0.1,
		NewEdge(1, 3): 0.1,
		NewEdge(0, 3): 0.1,
	}}
	for i := 0; i < 32; i++ {
		err := dev.ValidateCalibration(m)
		if err == nil {
			t.Fatal("model with three unknown couplers accepted")
		}
		if !strings.Contains(err.Error(), "no coupler (0,2)") {
			t.Fatalf("round %d: error %q must name the first offending edge in sorted order, (0,2)", i, err)
		}
	}
}

// TestWeightedDistancesFreshAfterMutation is the stale-memo regression:
// memoization used to key on *NoiseModel, so editing a model in place
// kept serving the matrix of its old contents. Content-digest keys make
// the edited model a different memo entry by construction.
func TestWeightedDistancesFreshAfterMutation(t *testing.T) {
	dev := Ring(6)
	m := &NoiseModel{Default: 0.001, EdgeError: map[Edge]float64{NewEdge(0, 1): 0.001}}
	before := dev.WeightedDistancesFor(m)

	m.EdgeError[NewEdge(0, 1)] = 0.4 // in-place recalibration
	after := dev.WeightedDistancesFor(m)

	want := WeightedDistances(dev, m)
	for i := range want {
		if after[i] != want[i] {
			t.Fatalf("stale matrix served after in-place mutation (flat index %d: got %g, want %g)", i, after[i], want[i])
		}
	}
	n := dev.NumQubits()
	if !(after[0*n+1] > before[0*n+1]) {
		t.Fatal("degraded edge did not increase its weighted distance")
	}
}

// TestWeightedDistancesMemoLRU is the eviction regression: overflow
// used to delete an arbitrary map entry, which could evict the hottest
// model while a cold one stayed pinned. Eviction must be least-recently
// -used: a just-touched entry survives overflow.
func TestWeightedDistancesMemoLRU(t *testing.T) {
	dev := Line(6)
	rng := rand.New(rand.NewSource(3))
	models := make([]*NoiseModel, maxWeightedDistanceMemos+1)
	for i := range models {
		models[i] = RandomNoise(dev, 1e-3, 1e-1, rng)
	}

	var computes atomic.Int64
	wdistComputeHook = func(*Device, *NoiseModel) { computes.Add(1) }
	defer func() { wdistComputeHook = nil }()

	for _, m := range models[:maxWeightedDistanceMemos] {
		dev.WeightedDistancesFor(m) // fill the memo to capacity
	}
	dev.WeightedDistancesFor(models[0])                        // touch: most recently used now
	dev.WeightedDistancesFor(models[maxWeightedDistanceMemos]) // overflow

	before := computes.Load()
	dev.WeightedDistancesFor(models[0])
	if computes.Load() != before {
		t.Fatal("most recently used entry was evicted on overflow")
	}
	dev.WeightedDistancesFor(models[1]) // LRU victim: must recompute
	if computes.Load() != before+1 {
		t.Fatal("least recently used entry survived overflow")
	}

	dev.wdistMu.Lock()
	n, ord := len(dev.wdist), len(dev.wdistOrder)
	dev.wdistMu.Unlock()
	if n > maxWeightedDistanceMemos || n != ord {
		t.Fatalf("memo bookkeeping inconsistent: %d entries, %d order slots, cap %d", n, ord, maxWeightedDistanceMemos)
	}
}

// TestWeightedDistancesSingleFlight: concurrent cold lookups of one
// model must run the O(N³) computation exactly once (run with -race).
func TestWeightedDistancesSingleFlight(t *testing.T) {
	dev := Grid(4, 4)
	m := RandomNoise(dev, 1e-3, 1e-1, rand.New(rand.NewSource(11)))

	var computes atomic.Int64
	wdistComputeHook = func(*Device, *NoiseModel) { computes.Add(1) }
	defer func() { wdistComputeHook = nil }()

	const goroutines = 16
	mats := make([][]float64, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			mats[i] = dev.WeightedDistancesFor(m)
		}(i)
	}
	close(start)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("%d concurrent cold lookups computed %d times, want 1 (single-flight)", goroutines, got)
	}
	for i := 1; i < goroutines; i++ {
		if &mats[i][0] != &mats[0][0] {
			t.Fatal("concurrent lookups returned different matrices")
		}
	}
}

// TestCalibrationConcurrentSwap exercises the reader-mostly contract
// under -race: readers take atomic snapshot loads and memoized
// distance lookups while a writer recalibrates.
func TestCalibrationConcurrentSwap(t *testing.T) {
	dev := Grid(3, 3)
	rng := rand.New(rand.NewSource(5))
	models := make([]*NoiseModel, 8)
	for i := range models {
		models[i] = RandomNoise(dev, 1e-3, 1e-1, rng)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if snap := dev.Calibration(); snap != nil {
					w := dev.WeightedDistancesFor(snap.Model)
					if len(w) != dev.NumQubits()*dev.NumQubits() {
						t.Error("bad matrix size")
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 64; i++ {
		if _, err := dev.ApplyCalibration(models[i%len(models)]); err != nil {
			t.Errorf("ApplyCalibration: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()

	if got := dev.Calibration().Version; got != 64 {
		t.Fatalf("final version = %d, want 64", got)
	}
}

func TestNoiseDigestCanonical(t *testing.T) {
	a := &NoiseModel{Default: 0.01, EdgeError: map[Edge]float64{NewEdge(0, 1): 0.1, NewEdge(1, 2): 0.2}}
	b := &NoiseModel{Default: 0.01, EdgeError: map[Edge]float64{NewEdge(1, 2): 0.2, NewEdge(0, 1): 0.1}}
	if a.digest() != b.digest() {
		t.Fatal("equal models must hash equal regardless of map order")
	}
	c := &NoiseModel{Default: 0.01, EdgeError: map[Edge]float64{NewEdge(0, 1): 0.1, NewEdge(1, 2): 0.21}}
	if a.digest() == c.digest() {
		t.Fatal("differing edge rates must change the digest")
	}
	d := &NoiseModel{Default: 0.02, EdgeError: map[Edge]float64{NewEdge(0, 1): 0.1, NewEdge(1, 2): 0.2}}
	if a.digest() == d.digest() {
		t.Fatal("differing default rates must change the digest")
	}
}

func TestFromSpec(t *testing.T) {
	for spec, wantQubits := range map[string]int{
		"tokyo": 20, "QX5": 16, "falcon27": 27,
		"grid:3x4": 12, "line:7": 7, "ring:5": 5, "star:4": 4,
		"full:3": 3, "sycamore:3x3": 9, "aspen:2": 16,
	} {
		d, err := FromSpec(spec)
		if err != nil {
			t.Errorf("FromSpec(%q): %v", spec, err)
			continue
		}
		if d.NumQubits() != wantQubits {
			t.Errorf("FromSpec(%q) = %d qubits, want %d", spec, d.NumQubits(), wantQubits)
		}
	}
	for _, bad := range []string{
		"", "nope", "grid:0x4", "line:-1", "ring:2", "grid:64x64",
		// The product of the sides wraps: 0 and negative mod 2^64.
		"grid:4294967296x4294967296", "grid:3037000500x3037000500",
		"sycamore:4294967296x4294967296",
		// Sycamore needs at least a 2x2 array.
		"sycamore:1x5", "sycamore:5x1", "sycamore:1x1",
	} {
		if _, err := FromSpec(bad); err == nil {
			t.Errorf("FromSpec(%q) accepted", bad)
		}
	}
}
