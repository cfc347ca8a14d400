package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/qasm"
	"repro/internal/verify"
)

// compileJSON is the part of sabred's compile response the checks read.
type compileJSON struct {
	OriginalGates int    `json:"original_gates"`
	AddedGates    int    `json:"added_gates"`
	InitialLayout []int  `json:"initial_layout"`
	FinalLayout   []int  `json:"final_layout"`
	CacheHit      bool   `json:"cache_hit"`
	QASM          string `json:"qasm"`
	Passes        []struct {
		Pass      string `json:"pass"`
		ElapsedNS int64  `json:"elapsed_ns"`
	} `json:"passes"`
}

// jobJSON is the part of a GET /jobs/{id} view the checks read.
type jobJSON struct {
	State  string       `json:"state"`
	Error  string       `json:"error"`
	Result *compileJSON `json:"result"`
}

// passesNS sums the daemon's own per-pass timings.
func (c *compileJSON) passesNS() int64 {
	var ns int64
	for _, p := range c.Passes {
		ns += p.ElapsedNS
	}
	return ns
}

// decodeResponse checks a sample's transport outcome and decodes its
// compile response, unwrapping a job view.
func decodeResponse(s *sample, job bool) (*compileJSON, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", s.status, truncate(s.body))
	}
	if job {
		var j jobJSON
		if err := json.Unmarshal(s.body, &j); err != nil {
			return nil, fmt.Errorf("decode job: %w", err)
		}
		if j.State != "done" || j.Result == nil {
			return nil, fmt.Errorf("job ended %s: %s", j.State, j.Error)
		}
		return j.Result, nil
	}
	var c compileJSON
	if err := json.Unmarshal(s.body, &c); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return &c, nil
}

// checkRouted verifies a routed program against the original without
// trusting the compiler's own verify pass:
//   - the re-parsed output, SWAPs decomposed, is hardware compliant;
//   - the CX skeletons (single-qubit gates dropped) are equivalent over
//     GF(2) under the reported layouts, when both contain only CX and
//     SWAP two-qubit gates;
//   - without post-routing passes, routed CX = original CX + added gates.
func checkRouted(orig *circuit.Circuit, resp *compileJSON, dev *arch.Device, passes bool) error {
	routed, err := qasm.Parse(resp.QASM)
	if err != nil {
		return fmt.Errorf("re-parse routed QASM: %w", err)
	}
	if resp.OriginalGates != orig.NumGates() {
		return fmt.Errorf("original_gates %d, input has %d", resp.OriginalGates, orig.NumGates())
	}
	flat := routed.DecomposeSwaps()
	if err := verify.HardwareCompliant(flat, dev.Connected); err != nil {
		return err
	}
	so, okO := cxSkeleton(orig)
	sr, okR := cxSkeleton(routed)
	if okO && okR {
		if err := verify.CheckRouted(so, sr, resp.InitialLayout, resp.FinalLayout); err != nil {
			return err
		}
	}
	if !passes {
		want := orig.CountKind(circuit.KindCX) + resp.AddedGates
		if got := flat.CountKind(circuit.KindCX); got != want {
			return fmt.Errorf("routed CX %d, want original %d + added %d", got, orig.CountKind(circuit.KindCX), resp.AddedGates)
		}
	}
	return nil
}

// cxSkeleton drops every single-qubit gate; false when a two-qubit gate
// other than CX or SWAP remains, whose action GF(2) cannot model.
func cxSkeleton(c *circuit.Circuit) (*circuit.Circuit, bool) {
	out := circuit.New(c.NumQubits())
	for _, g := range c.Gates() {
		switch {
		case !g.TwoQubit():
		case g.Kind == circuit.KindCX || g.Kind == circuit.KindSwap:
			out.AppendTrusted(g)
		default:
			return nil, false
		}
	}
	return out, true
}

// streamCheck is what a stream response yields once verified.
type streamCheck struct {
	gatesIn, added int
}

// checkStream verifies a streamed response: the trailers arrived (the
// stream is not torn), the re-scanned output has the gate count the
// trailer claims and is hardware compliant, and every input gate was
// admitted.
func checkStream(s *sample, inputGates int, dev *arch.Device) (streamCheck, error) {
	if s.err != nil {
		return streamCheck{}, s.err
	}
	if s.status != http.StatusOK {
		return streamCheck{}, fmt.Errorf("status %d: %s", s.status, truncate(s.body))
	}
	trailer := func(name string) (int, error) {
		v := s.trailer.Get(name)
		if v == "" {
			return 0, fmt.Errorf("torn stream: no %s trailer", name)
		}
		return strconv.Atoi(v)
	}
	var out streamCheck
	var gatesOut, swaps, bridges int
	for _, t := range []struct {
		name string
		dst  *int
	}{{"X-Sabre-Gates-In", &out.gatesIn}, {"X-Sabre-Gates-Out", &gatesOut}, {"X-Sabre-Swaps", &swaps}, {"X-Sabre-Bridges", &bridges}} {
		v, err := trailer(t.name)
		if err != nil {
			return out, err
		}
		*t.dst = v
	}
	if out.gatesIn != inputGates {
		return out, fmt.Errorf("gates in %d, sent %d", out.gatesIn, inputGates)
	}
	n := 0
	err := qasm.ScanGates(bytes.NewReader(s.body), func(g circuit.Gate) error {
		n++
		if g.TwoQubit() && !dev.Connected(g.Q0, g.Q1) {
			return fmt.Errorf("gate %d (%v) acts on uncoupled qubits %d,%d", n-1, g.Kind, g.Q0, g.Q1)
		}
		return nil
	})
	if err != nil {
		return out, fmt.Errorf("re-scan output: %w", err)
	}
	if n != gatesOut {
		return out, fmt.Errorf("re-scanned %d gates, trailer says %d", n, gatesOut)
	}
	out.added = 3 * (swaps + bridges)
	return out, nil
}

// errMismatch marks a byte-identity failure between cache hits.
var errMismatch = errors.New("cache hit differs from the first hit of its key")
