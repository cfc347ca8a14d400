package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/verify"
)

// FuzzRouteOracles decodes its input into a small circuit (see
// decodeRouteInput) and routes it on Tokyo and on the line or grid
// device the input picks, under each heuristic, with bridges off and
// on. Three oracles must hold for every configuration:
//   - the bitset engine routes exactly as the exhaustive reference:
//     circuit, layouts, counts and PassStats;
//   - RouteStream emits exactly what RouteStreamMaterialized emits, with
//     the same layouts and StreamStats counts (swaps, bridges, rounds,
//     forced routes, gates in and out, chunks);
//   - every routed circuit is hardware compliant.
//
// An unsound scoring bound, or a dependency store that releases gates
// in another order, breaks the first two.
func FuzzRouteOracles(f *testing.F) {
	f.Add([]byte{0x06, 0x00, 0x00, 0x09, 0x0b, 0x11, 0x1a, 0x21, 0x05, 0x07, 0x2c, 0x03})
	f.Add([]byte{0x03, 0xe5, 0x08, 0x01, 0x10, 0x02, 0x18, 0x03, 0x20, 0x04, 0x04, 0x05, 0x0e, 0x09})
	f.Fuzz(func(t *testing.T, data []byte) {
		circ, dev, seed, sopts := decodeRouteInput(data)
		for _, d := range []*arch.Device{arch.IBMQ20Tokyo(), dev} {
			for _, h := range []Heuristic{HeuristicBasic, HeuristicLookahead, HeuristicDecay} {
				for _, bridge := range []bool{false, true} {
					opts := Options{Heuristic: h, UseBridge: bridge, Seed: seed, Trials: 1}
					label := d.Name() + "/" + h.String()
					if bridge {
						label += "/bridge"
					}
					fast, err := Compile(circ, d, opts)
					if err != nil {
						t.Fatalf("%s: bitset: %v", label, err)
					}
					opts.Scoring = ScoringExhaustive
					ref, err := Compile(circ, d, opts)
					if err != nil {
						t.Fatalf("%s: exhaustive: %v", label, err)
					}
					assertSameRoute(t, label, fast, ref)
					if err := verify.HardwareCompliant(fast.Circuit, d.Connected); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					opts.Scoring = ScoringBitset
					_, gates := assertStreamParity(t, label+"/stream", circ, d, opts, sopts)
					streamed := circuit.New(d.NumQubits()).AppendTrusted(gates...)
					if err := verify.HardwareCompliant(streamed, d.Connected); err != nil {
						t.Fatalf("%s/stream: %v", label, err)
					}
				}
			}
		}
	})
}

// decodeRouteInput turns fuzz bytes into a routing problem. data[0]
// picks the second device: a line of 2–17 qubits when its low bit is
// clear, else a grid of 2–4 by 2–4. data[1] is the seed and sets the
// streaming window: Lookahead 1–8 (small, so arena slots recycle) and
// ChunkGates 1–32. Every further byte pair (b0, b1) is one gate, up to
// 48, on the second device's qubits: b0%8 picks CX (0–2), CZ, SWAP,
// H, RZ or measure, b0>>3 the first qubit, b1 the second qubit (made
// distinct), the angle or the classical bit.
func decodeRouteInput(data []byte) (*circuit.Circuit, *arch.Device, int64, StreamOptions) {
	var b0, b1 byte
	if len(data) > 0 {
		b0 = data[0]
	}
	if len(data) > 1 {
		b1 = data[1]
	}
	dev := arch.Line(2 + int(b0>>1)%16)
	if b0&1 == 1 {
		dev = arch.Grid(2+int(b0>>1)%3, 2+int(b0>>3)%3)
	}
	n := dev.NumQubits()
	c := circuit.New(n)
	for i := 2; i+1 < len(data) && c.NumGates() < 48; i += 2 {
		op, arg := data[i], data[i+1]
		a := int(op>>3) % n
		b := int(arg) % (n - 1)
		if b >= a {
			b++
		}
		switch op % 8 {
		case 0, 1, 2:
			c.Append(circuit.CX(a, b))
		case 3:
			c.Append(circuit.CZ(a, b))
		case 4:
			c.Append(circuit.Swap(a, b))
		case 5:
			c.Append(circuit.G1(circuit.KindH, a))
		case 6:
			c.Append(circuit.G1(circuit.KindRZ, a, float64(arg)/16))
		case 7:
			c.Append(circuit.Gate{Kind: circuit.KindMeasure, Q0: a, Q1: int(arg) % n})
		}
	}
	sopts := StreamOptions{Lookahead: 1 + int(b1&7), ChunkGates: 1 + int(b1>>3)}
	return c, dev, int64(b1), sopts
}

// assertSameRoute fails unless a and b are the same routing outcome:
// gate-for-gate equal circuits, equal layouts, counts and PassStats.
func assertSameRoute(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !a.Circuit.Equal(b.Circuit) {
		t.Fatalf("%s: routed circuits differ (%d vs %d gates)", label, a.Circuit.NumGates(), b.Circuit.NumGates())
	}
	for q := range a.InitialLayout {
		if a.InitialLayout[q] != b.InitialLayout[q] || a.FinalLayout[q] != b.FinalLayout[q] {
			t.Fatalf("%s: layouts differ at qubit %d", label, q)
		}
	}
	if a.SwapCount != b.SwapCount || a.BridgeCount != b.BridgeCount || a.Stats != b.Stats {
		t.Fatalf("%s: counts differ: %d/%d swaps, %d/%d bridges, stats %+v vs %+v", label,
			a.SwapCount, b.SwapCount, a.BridgeCount, b.BridgeCount, a.Stats, b.Stats)
	}
}
