package qasm_test

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/circuit"
	"repro/internal/qasm"
	"repro/internal/workloads"
)

// randomTrace is a parameterless QASM trace in the streaming
// workload's shape: 18 qubits, 55% CX.
func randomTrace(t testing.TB, gates int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := workloads.WriteRandomQASM(&buf, 18, gates, 0.55, 3); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGateScannerZeroAllocs: once warm, scanning a parameterless
// statement allocates nothing — the statement is lexed in place.
func TestGateScannerZeroAllocs(t *testing.T) {
	sc := qasm.NewGateScanner(bytes.NewReader(randomTrace(t, 20000)))
	for i := 0; i < 2000; i++ {
		if !sc.Scan() {
			t.Fatalf("trace ended early: %v", sc.Err())
		}
	}
	if allocs := testing.AllocsPerRun(10000, func() {
		if !sc.Scan() {
			t.Fatalf("trace ended early: %v", sc.Err())
		}
	}); allocs != 0 {
		t.Fatalf("GateScanner.Scan: %v allocs per statement, want 0", allocs)
	}
}

// TestStreamWriterZeroAllocs: encoding a 1024-gate chunk allocates
// nothing once the writer exists.
func TestStreamWriterZeroAllocs(t *testing.T) {
	c := workloads.QFT(24)
	gates := c.Gates()[:1024]
	sw := qasm.NewStreamWriter(io.Discard, c.NumQubits())
	if allocs := testing.AllocsPerRun(50, func() {
		if err := sw.WriteGates(gates); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("StreamWriter.WriteGates: %v allocs per 1024-gate chunk, want 0", allocs)
	}
}

// TestFormatAllocs: Format allocates its output once, whatever the
// gate count and parameters.
func TestFormatAllocs(t *testing.T) {
	for _, c := range []*circuit.Circuit{workloads.GHZ(3), workloads.QFT(20), workloads.Ising(16, 40)} {
		if allocs := testing.AllocsPerRun(10, func() { _ = qasm.Format(c) }); allocs > 2 {
			t.Fatalf("Format(%d gates): %v allocs, want at most 2", c.NumGates(), allocs)
		}
	}
}

// TestAppendJSONAllocs: escaping a program into a buffer that has room
// for it allocates nothing.
func TestAppendJSONAllocs(t *testing.T) {
	c := workloads.QFT(20)
	buf := qasm.AppendJSON(nil, c)
	if allocs := testing.AllocsPerRun(10, func() { buf = qasm.AppendJSON(buf[:0], c) }); allocs != 0 {
		t.Fatalf("AppendJSON(%d gates): %v allocs, want 0", c.NumGates(), allocs)
	}
}

var sink any

func benchCircuit(b *testing.B) *circuit.Circuit {
	bm, ok := workloads.ByName("9symml_195")
	if !ok {
		b.Fatal("missing 9symml_195")
	}
	return bm.Build()
}

func BenchmarkParse(b *testing.B) {
	c := benchCircuit(b)
	src := qasm.Format(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := qasm.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		sink = out
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.NumGates()), "ns/gate")
}

func BenchmarkFormat(b *testing.B) {
	c := benchCircuit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = qasm.Format(c)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.NumGates()), "ns/gate")
}

func BenchmarkScanGates(b *testing.B) {
	const gates = 50000
	src := randomTrace(b, gates)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := qasm.ScanGates(bytes.NewReader(src), func(circuit.Gate) error { n++; return nil }); err != nil || n != gates {
			b.Fatalf("scanned %d gates: %v", n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*gates), "ns/gate")
}

func BenchmarkStreamWriter(b *testing.B) {
	c := benchCircuit(b)
	gates := c.Gates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw := qasm.NewStreamWriter(io.Discard, c.NumQubits())
		for j := 0; j < len(gates); j += 1024 {
			if err := sw.WriteGates(gates[j:min(j+1024, len(gates))]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(gates)), "ns/gate")
}

// BenchmarkProgramJSON compares the two ways a response writes a routed
// program: AppendJSON escaping it into a reused buffer, and Format
// followed by an indenting json.Encoder, which escapes the text and
// scans it again to indent.
func BenchmarkProgramJSON(b *testing.B) {
	c := benchCircuit(b)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = qasm.AppendJSON(buf[:0], c)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.NumGates()), "ns/gate")
	})
	b.Run("format+encoder", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(struct {
				QASM string `json:"qasm"`
			}{qasm.Format(c)}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.NumGates()), "ns/gate")
	})
}
