package batch

import (
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/workloads"
)

// pinnedJob exercises every section of the key encoding: device,
// gates with and without parameters, every hashed option, a noise
// model, the route, the pass list and the calibration version.
func pinnedJob() Job {
	c := circuit.NewNamed("pinned", 4)
	c.Append(
		circuit.G1(circuit.KindH, 0), circuit.CX(0, 1), circuit.Swap(2, 3),
		circuit.G1(circuit.KindU3, 3, math.Pi/2, -0.25, 1e-9), circuit.G1(circuit.KindMeasure, 1),
	)
	opts := core.DefaultOptions()
	opts.Seed = 42
	opts.UseBridge = true
	opts.MaxEdgeError = 0.2
	opts.Noise = &arch.NoiseModel{Default: 0.01, EdgeError: map[arch.Edge]float64{{A: 1, B: 2}: 0.05, {A: 0, B: 1}: 0.02}}
	return Job{
		Circuit: c, Device: arch.IBMQ20Tokyo(), Options: opts, Trials: 3,
		Route: "bka", Passes: []string{"opt", " Verify"}, CalVersion: 7,
	}
}

// TestKeyOfPinned pins the digest of a fixed job. The derived seed and
// sabred's "key" field both come from it, so the bytes KeyOf hashes
// must change only together with keyVersion and this value.
func TestKeyOfPinned(t *testing.T) {
	const want = "90ceeaf7e04304f96177ec8dddf8cc8fe567187743f6d3b5bb4287e666e6a094"
	got := KeyOf(pinnedJob())
	if hex.EncodeToString(got[:]) != want {
		t.Fatalf("KeyOf(pinned job) = %x, want %s", got, want)
	}
}

var benchKey Key

// BenchmarkKeyOf hashes jobs of 21, 512 and 34,881 gates, in full and
// resumed from a kept KeyState. KeyOf runs on every request, cache hits
// included.
func BenchmarkKeyOf(b *testing.B) {
	for _, name := range []string{"4mod5-v1_22", "qft_16", "9symml_195"} {
		bm, ok := workloads.ByName(name)
		if !ok {
			b.Fatalf("missing %s", name)
		}
		job := Job{Circuit: bm.Build(), Device: arch.IBMQ20Tokyo(), Options: core.DefaultOptions()}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchKey = KeyOf(job)
			}
		})
		resumed := job
		resumed.KeyState = NewKeyState(job.Device, job.Circuit)
		b.Run(name+"/resumed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchKey = KeyOf(resumed)
			}
		})
	}
}
