package qasm_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/qasm"
	"repro/internal/workloads"
)

// The fmt-based writer below is the reference the append encoder is
// held to: Format, Write and StreamWriter must reproduce its bytes.

func oracleWrite(w io.Writer, c *circuit.Circuit, creg bool) error {
	bw := bufio.NewWriter(w)
	n := max(c.NumQubits(), 1)
	fmt.Fprintln(bw, "OPENQASM 2.0;")
	fmt.Fprintln(bw, "include \"qelib1.inc\";")
	fmt.Fprintf(bw, "qreg q[%d];\n", n)
	if creg {
		fmt.Fprintf(bw, "creg c[%d];\n", n)
	}
	for _, g := range c.Gates() {
		if err := oracleGate(bw, g); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func oracleFormat(c *circuit.Circuit) string {
	var sb strings.Builder
	_ = oracleWrite(&sb, c, c.CountKind(circuit.KindMeasure) > 0)
	return sb.String()
}

func oracleGate(w io.Writer, g circuit.Gate) error {
	switch g.Kind {
	case circuit.KindMeasure:
		_, err := fmt.Fprintf(w, "measure q[%d] -> c[%d];\n", g.Q0, g.Q0)
		return err
	case circuit.KindBarrier:
		_, err := fmt.Fprintf(w, "barrier q[%d];\n", g.Q0)
		return err
	}
	var sb strings.Builder
	sb.WriteString(g.Kind.String())
	if len(g.Params) > 0 {
		sb.WriteByte('(')
		for i, p := range g.Params {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(oracleParam(p))
		}
		sb.WriteByte(')')
	}
	fmt.Fprintf(&sb, " q[%d]", g.Q0)
	if g.TwoQubit() {
		fmt.Fprintf(&sb, ",q[%d]", g.Q1)
	}
	sb.WriteString(";\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

func oracleParam(v float64) string {
	if v == 0 {
		return "0"
	}
	ratio := v / math.Pi
	for _, den := range []float64{1, 2, 3, 4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		num := ratio * den
		if num == math.Trunc(num) && math.Abs(num) <= 1024 {
			n := int64(num)
			switch {
			case den == 1 && n == 1:
				return "pi"
			case den == 1 && n == -1:
				return "-pi"
			case den == 1:
				return fmt.Sprintf("%d*pi", n)
			case n == 1:
				return fmt.Sprintf("pi/%d", int64(den))
			case n == -1:
				return fmt.Sprintf("-pi/%d", int64(den))
			default:
				return fmt.Sprintf("%d*pi/%d", n, int64(den))
			}
		}
	}
	return fmt.Sprintf("%.17g", v)
}

// assertWritersMatchOracle checks Format, Write and StreamWriter (fed
// in uneven chunks) against the reference writer.
func assertWritersMatchOracle(t *testing.T, label string, c *circuit.Circuit) {
	t.Helper()
	if got, want := qasm.Format(c), oracleFormat(c); got != want {
		t.Fatalf("%s: Format differs from the reference writer:\n%s", label, firstDiff(got, want))
	}
	var w bytes.Buffer
	if err := qasm.Write(&w, c); err != nil {
		t.Fatal(err)
	}
	if got, want := w.String(), oracleFormat(c); got != want {
		t.Fatalf("%s: Write differs from the reference writer:\n%s", label, firstDiff(got, want))
	}
	var s bytes.Buffer
	sw := qasm.NewStreamWriter(&s, c.NumQubits())
	gates := c.Gates()
	for i, step := 0, 1; i < len(gates); i, step = i+step, step*3+1 {
		if err := sw.WriteGates(gates[i:min(i+step, len(gates))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	_ = oracleWrite(&want, c, true)
	if got := s.String(); got != want.String() {
		t.Fatalf("%s: StreamWriter differs from the reference writer:\n%s", label, firstDiff(got, want.String()))
	}
}

func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-40)
	return fmt.Sprintf("at byte %d\n got  %q\n want %q", i, got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
}

func TestWritersMatchOracleTable2(t *testing.T) {
	for _, b := range workloads.All() {
		c := b.Build()
		assertWritersMatchOracle(t, b.Name, c)
		assertWritersMatchOracle(t, b.Name+"/decomposed", c.DecomposeSwaps())
	}
}

// randomAngle draws the values the encoder treats differently: pi
// multiples over every denominator, values needing all 17 digits,
// negatives, zero and extreme magnitudes.
func randomAngle(rng *rand.Rand) float64 {
	dens := []float64{1, 2, 3, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 5}
	switch rng.Intn(6) {
	case 0:
		return float64(rng.Intn(4097)-2048) * math.Pi / dens[rng.Intn(len(dens))]
	case 1:
		return rng.NormFloat64()
	case 2:
		return -rng.ExpFloat64() * 1e-300
	case 3:
		return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(1+rng.Intn(2046))<<52)
	case 4:
		return 0
	default:
		return float64(rng.Intn(2000) - 1000)
	}
}

func TestWritersMatchOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := []circuit.Kind{
		circuit.KindH, circuit.KindX, circuit.KindY, circuit.KindZ, circuit.KindS, circuit.KindSdg,
		circuit.KindT, circuit.KindTdg, circuit.KindRX, circuit.KindRY, circuit.KindRZ,
		circuit.KindU1, circuit.KindU2, circuit.KindU3, circuit.KindMeasure, circuit.KindBarrier,
	}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(200)
		c := circuit.New(n)
		for i := rng.Intn(300); i > 0; i-- {
			a, b := rng.Intn(n), rng.Intn(n-1)
			if b >= a {
				b++
			}
			switch r := rng.Intn(10); {
			case r < 2:
				c.Append(circuit.CX(a, b))
			case r == 2:
				c.Append(circuit.Swap(a, b), circuit.CZ(b, a))
			default:
				k := kinds[rng.Intn(len(kinds))]
				params := make([]float64, k.NumParams())
				for j := range params {
					params[j] = randomAngle(rng)
				}
				c.Append(circuit.G1(k, a, params...))
			}
		}
		assertWritersMatchOracle(t, fmt.Sprintf("random %d", trial), c)
	}
}
