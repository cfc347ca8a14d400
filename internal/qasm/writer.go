package qasm

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/circuit"
)

// Write serializes a circuit as OpenQASM 2.0. All wires are emitted as
// a single register q[n]; measurements target a matching creg c[n].
// SWAP gates are emitted with the qelib1 `swap` mnemonic (callers that
// need pure {1q, CX} output should DecomposeSwaps first).
func Write(w io.Writer, c *circuit.Circuit) error {
	sw := newStreamWriter(w, c.NumQubits(), c.CountKind(circuit.KindMeasure) > 0)
	return sw.WriteGates(c.Gates())
}

// Format returns the QASM text of the circuit, as Write writes it. The
// text is built in one allocation sized from an upper bound on its
// length.
func Format(c *circuit.Circuit) string {
	var line [lineBound]byte
	var sb strings.Builder
	sb.Grow(textBound(c))
	sb.Write(appendHeader(line[:0], c.NumQubits(), c.CountKind(circuit.KindMeasure) > 0))
	for _, g := range c.Gates() {
		sb.Write(appendGate(line[:0], g))
	}
	return sb.String()
}

// AppendJSON appends the circuit's QASM text, as Format returns it, to
// dst as a JSON string, escaped as encoding/json escapes it by default.
// Each line is encoded into a stack buffer and escaped from there, so
// the text is never held whole: a response encoder can write a routed
// program straight into its body.
func AppendJSON(dst []byte, c *circuit.Circuit) []byte {
	var line [lineBound]byte
	gates := c.Gates()
	dst = slices.Grow(dst, textBound(c)+len(gates)*gateEscapeBound+2)
	dst = append(dst, '"')
	dst = appendEscaped(dst, appendHeader(line[:0], c.NumQubits(), c.CountKind(circuit.KindMeasure) > 0))
	for _, g := range gates {
		dst = appendEscaped(dst, appendGate(line[:0], g))
	}
	return append(dst, '"')
}

// textBound bounds the length of the circuit's QASM text.
func textBound(c *circuit.Circuit) int {
	var buf [20]byte
	digits := len(strconv.AppendInt(buf[:0], int64(c.NumQubits()), 10))
	size := headerBound + c.NumGates()*(gateBound+2*digits)
	for _, g := range c.Gates() {
		size += len(g.Params) * paramBound
	}
	return size
}

// Length bounds behind Format's single allocation: the header with
// both registers of a 20-digit width, escaped or not; a gate line less
// its qubit digits and parameters ("measure q[] -> c[];\n" is the
// longest); one parameter with its separator, where %.17g never needs
// more than 24 bytes ("-2.2250738585072014e-308"); and the stack buffer
// a single line is encoded in. A gate line grows by at most 6 bytes
// when escaped for JSON: its newline as `\n` and "->" as `-\u003e`.
const (
	headerBound     = 128
	gateBound       = 24
	paramBound      = 25
	lineBound       = 160
	gateEscapeBound = 6
)

// jsonEscapes holds encoding/json's escape for each ASCII byte it
// escapes inside a string: short forms for the quote, the backslash
// and \b, \f, \n, \r, \t, and \u00XX for the other control bytes
// and the HTML-sensitive <, > and &. The encoders here emit ASCII
// only, so no byte needs UTF-8 validation.
var jsonEscapes = func() (t [256]string) {
	for b := range utf8.RuneSelf {
		if b < ' ' || strings.ContainsRune("<>&", rune(b)) {
			t[b] = fmt.Sprintf(`\u%04x`, b)
		}
	}
	t['"'], t['\\'], t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = `\"`, `\\`, `\b`, `\f`, `\n`, `\r`, `\t`
	return t
}()

// appendEscaped appends ASCII text to dst as the inside of a JSON
// string, escaped as encoding/json escapes it.
func appendEscaped(dst, text []byte) []byte {
	start := 0
	for i, b := range text {
		if esc := jsonEscapes[b]; esc != "" {
			dst = append(append(dst, text[start:i]...), esc...)
			start = i + 1
		}
	}
	return append(dst, text[start:]...)
}

// appendHeader appends the program header: version, include, and the
// qreg (plus, with creg, a matching classical register) of width
// max(n, 1).
func appendHeader(dst []byte, n int, creg bool) []byte {
	n = max(n, 1)
	dst = append(dst, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q["...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, "];\n"...)
	if creg {
		dst = append(dst, "creg c["...)
		dst = strconv.AppendInt(dst, int64(n), 10)
		dst = append(dst, "];\n"...)
	}
	return dst
}

// appendGate appends one gate statement. It is the one per-gate
// encoder behind Format, Write and StreamWriter.
//
//sabre:hotpath
func appendGate(dst []byte, g circuit.Gate) []byte {
	switch g.Kind {
	case circuit.KindMeasure:
		dst = append(dst, "measure q["...)
		dst = strconv.AppendInt(dst, int64(g.Q0), 10)
		dst = append(dst, "] -> c["...)
		dst = strconv.AppendInt(dst, int64(g.Q0), 10)
		dst = append(dst, "];\n"...)
		return dst
	case circuit.KindBarrier:
		dst = append(dst, "barrier q["...)
		dst = strconv.AppendInt(dst, int64(g.Q0), 10)
		dst = append(dst, "];\n"...)
		return dst
	}
	dst = append(dst, g.Kind.String()...)
	if len(g.Params) > 0 {
		for i, v := range g.Params {
			if i == 0 {
				dst = append(dst, '(')
			} else {
				dst = append(dst, ',')
			}
			dst = appendParam(dst, v)
		}
		dst = append(dst, ')')
	}
	dst = append(dst, " q["...)
	dst = strconv.AppendInt(dst, int64(g.Q0), 10)
	if g.TwoQubit() {
		dst = append(dst, "],q["...)
		dst = strconv.AppendInt(dst, int64(g.Q1), 10)
	}
	dst = append(dst, "];\n"...)
	return dst
}

// piDenominators are the denominators appendParam tries, in order.
var piDenominators = [...]float64{1, 2, 3, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// appendParam appends an angle, using exact multiples of pi when the
// value is one (pi/2, -pi/4, ...) so round-trips stay bit-exact for
// the common cases, and %.17g otherwise.
//
//sabre:hotpath
func appendParam(dst []byte, v float64) []byte {
	if v == 0 {
		dst = append(dst, '0')
		return dst
	}
	ratio := v / math.Pi
	for _, den := range piDenominators {
		num := ratio * den
		if num != math.Trunc(num) || math.Abs(num) > 1024 {
			continue
		}
		n := int64(num)
		switch {
		case n == -1:
			dst = append(dst, '-')
		case n != 1:
			dst = strconv.AppendInt(dst, n, 10)
			dst = append(dst, '*')
		}
		dst = append(dst, "pi"...)
		if den != 1 {
			dst = append(dst, '/')
			dst = strconv.AppendInt(dst, int64(den), 10)
		}
		return dst
	}
	dst = strconv.AppendFloat(dst, v, 'g', 17, 64)
	return dst
}

// streamFlushBytes is how much encoded text StreamWriter buffers before
// writing it through, so one chunk of any size costs bounded memory.
const streamFlushBytes = 32 << 10

// StreamWriter serializes routed gates as OpenQASM 2.0 incrementally:
// the header is written up front, gates are appended chunk by chunk,
// and the concatenation of all chunks is a complete program. Because
// a streaming writer cannot look ahead to count measurements, the
// classical register line is emitted unconditionally — unlike Write,
// which omits it from measurement-free circuits. Both streaming
// compilation paths (windowed and materialized) share this writer, so
// their outputs stay byte-comparable by construction.
type StreamWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// NewStreamWriter writes the program header (version, include, qreg
// and creg of width max(numQubits,1)) to w and returns the writer.
func NewStreamWriter(w io.Writer, numQubits int) *StreamWriter {
	return newStreamWriter(w, numQubits, true)
}

func newStreamWriter(w io.Writer, numQubits int, creg bool) *StreamWriter {
	sw := &StreamWriter{w: w, buf: make([]byte, 0, streamFlushBytes+lineBound)}
	sw.buf = appendHeader(sw.buf, numQubits, creg)
	sw.flush()
	return sw
}

// WriteGates appends one chunk of gates and writes it through. Errors
// are sticky.
func (sw *StreamWriter) WriteGates(gates []circuit.Gate) error {
	for _, g := range gates {
		if sw.err != nil {
			return sw.err
		}
		sw.buf = appendGate(sw.buf, g)
		if len(sw.buf) >= streamFlushBytes {
			sw.flush()
		}
	}
	return sw.flush()
}

// Emit is WriteGates under the name core.StreamSink expects, so a
// StreamWriter plugs directly into the streaming router as its sink.
func (sw *StreamWriter) Emit(gates []circuit.Gate) error { return sw.WriteGates(gates) }

// Flush returns the sticky error. WriteGates leaves nothing buffered,
// so there is nothing else to flush.
func (sw *StreamWriter) Flush() error { return sw.err }

// flush writes the buffered text through, once no error has occurred.
func (sw *StreamWriter) flush() error {
	if sw.err == nil && len(sw.buf) > 0 {
		_, sw.err = sw.w.Write(sw.buf)
	}
	sw.buf = sw.buf[:0]
	return sw.err
}
