package qasm_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/qasm"
	"repro/internal/workloads"
)

// maxFuzzQubits bounds the inputs FuzzParseScan runs: a whole-register
// broadcast emits one gate per declared qubit, so an input a few dozen
// bytes long could otherwise ask for gigabytes.
const maxFuzzQubits = 4096

// FuzzParseScan holds Parse and GateScanner to one contract on any
// input: both fail with the same *qasm.Error, or both succeed with the
// same width and identical gates. The parser's direct operand scan
// agrees with its general path, a parsed circuit is valid, its text is
// a fixed point of Format∘Parse, and nothing panics.
//
// Seeds: addParseSeeds.
func FuzzParseScan(f *testing.F) {
	addParseSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		if qasm.DeclaredQubits(src) > maxFuzzQubits {
			t.Skip("declares more qubits than the fuzz bound")
		}
		c, perr := qasm.Parse(src)
		var gates []circuit.Gate
		sc := qasm.NewGateScanner(strings.NewReader(src))
		for sc.Scan() {
			gates = append(gates, sc.Gate())
		}
		serr := sc.Err()
		// A blank before '[' changes no token but sends every statement
		// past the parser's direct operand scan: the general path must
		// accept the same inputs and emit the same gates.
		slow, err := qasm.Parse(strings.ReplaceAll(src, "[", " ["))
		if (err == nil) != (perr == nil) || (err == nil && !slow.Equal(c)) {
			t.Fatalf("direct operand scan disagrees with the general parser: %v vs %v", perr, err)
		}
		if perr != nil || serr != nil {
			var qe *qasm.Error
			if !errors.As(perr, &qe) || !errors.As(serr, &qe) || perr.Error() != serr.Error() {
				t.Fatalf("Parse error %v, GateScanner error %v", perr, serr)
			}
			return
		}
		if sc.NumQubits() != c.NumQubits() || len(gates) != c.NumGates() {
			t.Fatalf("GateScanner: %d qubits, %d gates; Parse: %d qubits, %d gates",
				sc.NumQubits(), len(gates), c.NumQubits(), c.NumGates())
		}
		if !circuit.New(c.NumQubits()).AppendTrusted(gates...).Equal(c) {
			t.Fatal("GateScanner and Parse gates differ")
		}
		circuit.New(c.NumQubits()).Append(c.Gates()...) // panics on an invalid gate
		text := qasm.Format(c)
		back, err := qasm.Parse(text)
		if err != nil {
			t.Fatalf("Format output does not parse: %v\n%s", err, text)
		}
		if again := qasm.Format(back); again != text {
			t.Fatalf("Format(Parse(Format(c))) != Format(c):\n%s\nvs\n%s", again, text)
		}
	})
}

// FuzzProgramJSON holds AppendJSON to encoding/json: for every program
// Parse accepts, the escaped text is byte for byte the JSON string
// json.Marshal makes of Format's output. Seeds: addParseSeeds.
func FuzzProgramJSON(f *testing.F) {
	addParseSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		if qasm.DeclaredQubits(src) > maxFuzzQubits {
			t.Skip("declares more qubits than the fuzz bound")
		}
		c, err := qasm.Parse(src)
		if err != nil {
			return
		}
		want, err := json.Marshal(qasm.Format(c))
		if err != nil {
			t.Fatal(err)
		}
		if got := qasm.AppendJSON(nil, c); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON:\n%s\njson.Marshal(Format):\n%s", got, want)
		}
	})
}

// addParseSeeds seeds a fuzz target with FuzzParseScan's corpus:
// testdata/*.qasm, the inputs committed under
// testdata/fuzz/FuzzParseScan, the Table II circuits of up to 1000
// gates (larger ones only slow the mutator) and the repeated-operand
// cases.
func addParseSeeds(f *testing.F) {
	files, err := filepath.Glob("testdata/*.qasm")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	corpus, err := filepath.Glob("testdata/fuzz/FuzzParseScan/*")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range corpus {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// A corpus file is "go test fuzz v1" and then one string(...)
		// line holding the input as a Go literal.
		_, lit, _ := strings.Cut(strings.TrimSpace(string(b)), "\nstring(")
		src, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add(src)
	}
	for _, b := range workloads.All() {
		if b.Gori <= 1000 {
			f.Add(qasm.Format(b.Build()))
		}
	}
	for _, stmt := range []string{
		"ccx q[0],q[0],q[1];", "cswap q[1],q[2],q[1];", "cu1(0.5) q[2],q[2];", "cy q[0],q[0];",
		"ch q[1],q[1];", "crz(0.5) q[0],q[0];", "cu3(1,2,3) q[2],q[2];", "rzz(0.5) q[1],q[1];",
	} {
		f.Add("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n" + stmt + "\n")
	}
}
