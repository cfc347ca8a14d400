package main

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/qasm"
	"repro/internal/workloads"
)

// routedResponse compiles qft_10 in-process and renders it as sabred
// would, along with the input circuit.
func routedResponse(t *testing.T) (*circuit.Circuit, *compileJSON, *core.Result) {
	t.Helper()
	b, _ := workloads.ByName("qft_10")
	orig := b.Build()
	res, err := core.Compile(orig, device(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount == 0 {
		t.Fatal("qft_10 routed without SWAPs; the dropped-SWAP case needs one")
	}
	resp := &compileJSON{
		OriginalGates: orig.NumGates(), AddedGates: res.AddedGates,
		InitialLayout: res.InitialLayout, FinalLayout: res.FinalLayout,
		QASM: qasm.Format(res.Circuit),
	}
	return orig, resp, res
}

// rewrite returns c's QASM with gate i replaced by the result of edit
// (nil drops it).
func rewrite(c *circuit.Circuit, i int, edit func(circuit.Gate) *circuit.Gate) string {
	out := circuit.New(c.NumQubits())
	for j, g := range c.Gates() {
		if j == i {
			if ng := edit(g); ng != nil {
				out.AppendTrusted(*ng)
			}
			continue
		}
		out.AppendTrusted(g)
	}
	return qasm.Format(out)
}

func TestVerifierAcceptsRoutedOutput(t *testing.T) {
	orig, resp, _ := routedResponse(t)
	if err := checkRouted(orig, resp, device(), false); err != nil {
		t.Fatal(err)
	}
}

func TestVerifierRejectsCXOnUncoupledPair(t *testing.T) {
	orig, resp, res := routedResponse(t)
	dev := device()
	a, b := -1, -1
	for x := 0; x < dev.NumQubits() && a < 0; x++ {
		for y := 0; y < dev.NumQubits(); y++ {
			if x != y && !dev.Connected(x, y) {
				a, b = x, y
				break
			}
		}
	}
	idx := -1
	for i, g := range res.Circuit.Gates() {
		if g.Kind == circuit.KindCX {
			idx = i
			break
		}
	}
	resp.QASM = rewrite(res.Circuit, idx, func(circuit.Gate) *circuit.Gate { g := circuit.CX(a, b); return &g })
	err := checkRouted(orig, resp, dev, false)
	if err == nil || !strings.Contains(err.Error(), "uncoupled") {
		t.Fatalf("CX moved to uncoupled %d,%d: got %v", a, b, err)
	}
}

func TestVerifierRejectsDroppedSwap(t *testing.T) {
	orig, resp, res := routedResponse(t)
	idx := -1
	for i, g := range res.Circuit.Gates() {
		if g.Kind == circuit.KindSwap {
			idx = i
			break
		}
	}
	resp.QASM = rewrite(res.Circuit, idx, func(circuit.Gate) *circuit.Gate { return nil })
	if err := checkRouted(orig, resp, device(), false); err == nil {
		t.Fatal("a routed program missing one SWAP passed verification")
	}
	// The GF(2) check alone must catch it too, not only CX accounting.
	if err := checkRouted(orig, resp, device(), true); err == nil {
		t.Fatal("a routed program missing one SWAP passed the equivalence check")
	}
}

func TestStreamCheckRejectsTornResponse(t *testing.T) {
	s := &sample{status: http.StatusOK, body: []byte("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[20];\ncreg c[20];\ncx q[0],q[1];\n"), trailer: http.Header{}}
	if _, err := checkStream(s, 1, device()); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("response without trailers: got %v", err)
	}
	for k, v := range map[string]string{"X-Sabre-Gates-In": "1", "X-Sabre-Gates-Out": "1", "X-Sabre-Swaps": "0", "X-Sabre-Bridges": "0"} {
		s.trailer.Set(k, v)
	}
	if _, err := checkStream(s, 1, device()); err != nil {
		t.Fatalf("complete response: %v", err)
	}
	s.trailer.Set("X-Sabre-Gates-Out", "2")
	if _, err := checkStream(s, 1, device()); err == nil {
		t.Fatal("gate count differing from the trailer passed")
	}
}
