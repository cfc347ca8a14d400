package qasm

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/circuit"
)

const tinyProgram = `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(pi/4) q[2];
measure q[0] -> c[0];
`

func TestParseTinyProgram(t *testing.T) {
	c, err := Parse(tinyProgram)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits() != 3 {
		t.Fatalf("qubits = %d", c.NumQubits())
	}
	gs := c.Gates()
	if len(gs) != 4 {
		t.Fatalf("gates = %d: %v", len(gs), gs)
	}
	if gs[0].Kind != circuit.KindH || gs[0].Q0 != 0 {
		t.Fatalf("gate0 = %v", gs[0])
	}
	if gs[1].Kind != circuit.KindCX || gs[1].Q0 != 0 || gs[1].Q1 != 1 {
		t.Fatalf("gate1 = %v", gs[1])
	}
	if gs[2].Kind != circuit.KindRZ || math.Abs(gs[2].Params[0]-math.Pi/4) > 1e-15 {
		t.Fatalf("gate2 = %v", gs[2])
	}
	if gs[3].Kind != circuit.KindMeasure {
		t.Fatalf("gate3 = %v", gs[3])
	}
}

func TestParseMultipleRegisters(t *testing.T) {
	c, err := Parse(`OPENQASM 2.0;
qreg a[2];
qreg b[3];
cx a[1],b[0];
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits() != 5 {
		t.Fatalf("qubits = %d", c.NumQubits())
	}
	g := c.Gate(0)
	if g.Q0 != 1 || g.Q1 != 2 {
		t.Fatalf("flattening wrong: %v", g)
	}
}

func TestBroadcast(t *testing.T) {
	c, err := Parse(`OPENQASM 2.0;
qreg q[3];
h q;
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 3 {
		t.Fatalf("broadcast produced %d gates", c.NumGates())
	}
	// Two-register broadcast: cx q,r applies pairwise.
	c2, err := Parse(`OPENQASM 2.0;
qreg q[2];
qreg r[2];
cx q,r;
`)
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumGates() != 2 || c2.Gate(0).Q1 != 2 || c2.Gate(1).Q1 != 3 {
		t.Fatalf("pairwise broadcast wrong: %v", c2.Gates())
	}
	// Mixed: single control against register of targets.
	c3, err := Parse(`OPENQASM 2.0;
qreg q[3];
cx q[0],q;
`)
	if err == nil && c3.NumGates() == 3 {
		t.Fatal("cx q[0],q must fail or skip self-pair; got 3 gates including cx q0,q0")
	}
}

func TestParamExpressions(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"rz(pi) q[0];", math.Pi},
		{"rz(-pi/2) q[0];", -math.Pi / 2},
		{"rz(2*pi/3) q[0];", 2 * math.Pi / 3},
		{"rz(1.5e-1) q[0];", 0.15},
		{"rz(3+4*2) q[0];", 11},
		{"rz((3+4)*2) q[0];", 14},
		{"rz(2^3) q[0];", 8},
		{"rz(2^3^2) q[0];", 512}, // right assoc
		{"rz(sin(pi/2)) q[0];", 1},
		{"rz(cos(0)) q[0];", 1},
		{"rz(sqrt(4)) q[0];", 2},
		{"rz(ln(exp(1))) q[0];", 1},
		{"rz(-(-2)) q[0];", 2},
		{"rz(+5) q[0];", 5},
		{"rz(10-2-3) q[0];", 5}, // left assoc
	}
	for _, tc := range cases {
		c, err := Parse("OPENQASM 2.0;\nqreg q[1];\n" + tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		got := c.Gate(0).Params[0]
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: got %g, want %g", tc.src, got, tc.want)
		}
	}
}

func TestGateDefinitionInlining(t *testing.T) {
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
gate mygate(theta) a,b {
  h a;
  cx a,b;
  rz(theta/2) b;
}
mygate(pi) q[1],q[0];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	gs := c.Gates()
	if len(gs) != 3 {
		t.Fatalf("inline produced %d gates", len(gs))
	}
	if gs[0].Kind != circuit.KindH || gs[0].Q0 != 1 {
		t.Fatalf("gate0 = %v", gs[0])
	}
	if gs[1].Q0 != 1 || gs[1].Q1 != 0 {
		t.Fatalf("gate1 = %v", gs[1])
	}
	if math.Abs(gs[2].Params[0]-math.Pi/2) > 1e-15 {
		t.Fatalf("gate2 = %v", gs[2])
	}
}

func TestNestedGateDefinitions(t *testing.T) {
	src := `OPENQASM 2.0;
qreg q[2];
gate inner a,b { cx a,b; }
gate outer a,b { inner b,a; inner a,b; }
outer q[0],q[1];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 2 || c.Gate(0).Q0 != 1 || c.Gate(1).Q0 != 0 {
		t.Fatalf("nested inline wrong: %v", c.Gates())
	}
}

func TestCCXDecomposition(t *testing.T) {
	c, err := Parse(`OPENQASM 2.0;
qreg q[3];
ccx q[0],q[1],q[2];
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 15 {
		t.Fatalf("ccx expanded to %d gates, want 15", c.NumGates())
	}
	if c.CountKind(circuit.KindCX) != 6 {
		t.Fatalf("ccx has %d CNOTs, want 6", c.CountKind(circuit.KindCX))
	}
}

func TestCU1Decomposition(t *testing.T) {
	c, err := Parse(`OPENQASM 2.0;
qreg q[2];
cu1(pi/2) q[0],q[1];
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 5 || c.CountKind(circuit.KindCX) != 2 {
		t.Fatalf("cu1 decomposition wrong: %v", c.Gates())
	}
}

func TestBarrierAndIdIgnored(t *testing.T) {
	c, err := Parse(`OPENQASM 2.0;
qreg q[2];
id q[0];
barrier q;
u0 q[1];
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.CountKind(circuit.KindBarrier) != 2 || c.NumGates() != 2 {
		t.Fatalf("barrier/id handling wrong: %v", c.Gates())
	}
}

func TestOpaqueIgnored(t *testing.T) {
	_, err := Parse(`OPENQASM 2.0;
qreg q[1];
opaque mystery(a,b) x;
h q[0];
`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"bad version", "OPENQASM 3.0;\n", "version"},
		{"bad include", "OPENQASM 2.0;\ninclude \"other.inc\";\n", "include"},
		{"unknown gate", "OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n", "unknown gate"},
		{"unknown reg", "OPENQASM 2.0;\nqreg q[1];\nh r[0];\n", "unknown quantum register"},
		{"oob index", "OPENQASM 2.0;\nqreg q[1];\nh q[5];\n", "out of range"},
		{"same qubit", "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\n", "same qubit"},
		{"arity", "OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n", "needs 2 qubits"},
		{"params", "OPENQASM 2.0;\nqreg q[1];\nrz q[0];\n", "needs 1 params"},
		{"missing semicolon", "OPENQASM 2.0;\nqreg q[1];\nh q[0]\n", "expected"},
		{"unterminated string", "OPENQASM 2.0;\ninclude \"qelib1.inc\n", "unterminated"},
		{"redeclared qreg", "OPENQASM 2.0;\nqreg q[1];\nqreg q[2];\n", "redeclared"},
		{"zero-size reg", "OPENQASM 2.0;\nqreg q[0];\n", "invalid register size"},
		{"if unsupported", "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c==1) x q[0];\n", "not supported"},
		{"reset unsupported", "OPENQASM 2.0;\nqreg q[1];\nreset q[0];\n", "not supported"},
		{"measure unknown creg", "OPENQASM 2.0;\nqreg q[1];\nmeasure q[0] -> c[0];\n", "unknown classical register"},
		{"division by zero", "OPENQASM 2.0;\nqreg q[1];\nrz(1/0) q[0];\n", "division by zero"},
		{"stray char", "OPENQASM 2.0;\nqreg q[1];\n@ q[0];\n", "unexpected character"},
		{"non-finite angle", "OPENQASM 2.0;\nqreg q[1];\nrz(exp(1000)) q[0];\n", "qasm:3:4: parameter evaluates to +Inf"},
		{"brace in opaque", "OPENQASM 2.0;\nopaque g { a;\n", "expected ';'"},
		{"recursive gate", "OPENQASM 2.0;\nqreg q[1];\ngate g a { g a; }\ng q[0];\n", "qasm:3:12: unknown gate \"g\""},
	}
	// Every multi-qubit gate applied to one qubit twice fails at the
	// statement, in Parse and GateScanner alike.
	for _, stmt := range []string{
		"ccx q[0],q[0],q[1];", "ccx q[0],q[1],q[1];", "ccx q[1],q[0],q[1];", "cswap q[1],q[2],q[1];",
		"cu1(0.5) q[2],q[2];", "cy q[0],q[0];", "ch q[1],q[1];", "crz(0.5) q[0],q[0];",
		"cu3(1,2,3) q[2],q[2];", "rzz(0.5) q[1],q[1];", "swap q[1],q[1];", "cz q[2],q[2];",
		"pair q[0],q[0];",
	} {
		cases = append(cases, struct{ name, src, want string }{
			"repeated operand " + stmt,
			"OPENQASM 2.0;\nqreg q[3];\ngate pair a,b { h a; h b; }\n  " + stmt + "\n",
			"qasm:4:3: " + strings.Fields(strings.Split(stmt, "(")[0])[0] + " applied to the same qubit twice",
		})
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
		if _, _, serr := drainScanner(t, tc.src); serr == nil || serr.Error() != err.Error() {
			t.Errorf("%s: GateScanner error %v, Parse error %v", tc.name, serr, err)
		}
	}
}

// TestParseSemicolonFlood: a body of nothing but semicolons fails at its
// first byte, and the gate slice Parse reserves from the input stays
// within what a valid program of the same length could fill: one gate
// per 7-byte `h q[0];`.
func TestParseSemicolonFlood(t *testing.T) {
	src := strings.Repeat(";", 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Parse(src)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.HasPrefix(err.Error(), "qasm:1:1: ") {
		t.Fatalf("Parse(1 MiB of ';') = %v, want an error at 1:1", err)
	}
	limit := uint64(len(src)/7)*uint64(unsafe.Sizeof(circuit.Gate{})) + 64<<10
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("Parse(1 MiB of ';') allocated %d bytes, want at most %d", got, limit)
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Parse("OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n")
	qerr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if qerr.Line != 3 || qerr.Col != 1 {
		t.Fatalf("error at %d:%d, want 3:1", qerr.Line, qerr.Col)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	c := circuit.New(4)
	c.Append(
		circuit.G1(circuit.KindH, 0),
		circuit.CX(0, 1),
		circuit.G1(circuit.KindU3, 2, math.Pi/2, 0, math.Pi),
		circuit.Swap(2, 3),
		circuit.G1(circuit.KindRZ, 3, 0.12345),
		circuit.G1(circuit.KindMeasure, 0),
	)
	text := Format(c)
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	if !back.Equal(c) {
		t.Fatalf("round trip mismatch:\n%s\ngot  %v\nwant %v", text, back.Gates(), c.Gates())
	}
}

// Property: random circuits survive a QASM round trip bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		c := circuit.New(n)
		kinds := []circuit.Kind{
			circuit.KindH, circuit.KindX, circuit.KindT, circuit.KindTdg,
			circuit.KindS, circuit.KindSdg, circuit.KindRZ, circuit.KindRX,
			circuit.KindU1, circuit.KindU3,
		}
		for i := 0; i < 30; i++ {
			switch rng.Intn(3) {
			case 0:
				k := kinds[rng.Intn(len(kinds))]
				params := make([]float64, k.NumParams())
				for j := range params {
					params[j] = rng.NormFloat64()
				}
				c.Append(circuit.G1(k, rng.Intn(n), params...))
			case 1:
				a, b := rng.Intn(n), rng.Intn(n-1)
				if b >= a {
					b++
				}
				c.Append(circuit.CX(a, b))
			default:
				a, b := rng.Intn(n), rng.Intn(n-1)
				if b >= a {
					b++
				}
				c.Append(circuit.Swap(a, b))
			}
		}
		back, err := Parse(Format(c))
		return err == nil && back.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatParam(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{math.Pi, "pi"},
		{-math.Pi, "-pi"},
		{math.Pi / 2, "pi/2"},
		{-math.Pi / 4, "-pi/4"},
		{3 * math.Pi, "3*pi"},
		{3 * math.Pi / 4, "3*pi/4"},
	}
	for _, tc := range cases {
		if got := string(appendParam(nil, tc.v)); got != tc.want {
			t.Errorf("appendParam(%g) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	c, err := Parse(`// leading comment
OPENQASM 2.0; // trailing
   qreg q[2];
// full line
cx q[0],q[1];`)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 1 {
		t.Fatal("comments broke parsing")
	}
}

func TestParseReader(t *testing.T) {
	c, err := ParseReader(strings.NewReader(tinyProgram))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 4 {
		t.Fatal("ParseReader wrong")
	}
}
