package qasm

import (
	"bufio"
	"io"
	"math"
	"unsafe"

	"repro/internal/circuit"
)

// scanBufSize is GateScanner's initial read buffer. It grows only to
// hold a statement longer than itself.
const scanBufSize = 32 << 10

// GateScanner is an incremental OpenQASM 2.0 gate-stream parser: it
// pulls statements off an io.Reader one at a time and yields the
// flattened elementary gates, never materializing the whole file or a
// whole-circuit gate slice. A bufio.Scanner splits the input into
// statements, and each is lexed in place in the scanner's reused
// buffer, so steady-state memory is bounded by the longest single
// statement (plus the persistent register/gate-def tables) and a
// parameterless statement allocates nothing: a multi-gigabyte trace
// streams in O(1) memory.
//
// The scanner runs Parse's parser, one statement at a time, so it
// accepts exactly the dialect Parse accepts and yields exactly the
// gates Parse would put in the circuit, in the same order: for any
// source, draining a GateScanner and Parse(src).Gates() are
// element-wise identical, and an input fails both or neither, with
// the error at the same position. Statements end at a ';' outside
// braces or at the '}' closing a gate body, skipping comments and
// string literals; the parser keeps braces out of every other
// statement so these boundaries are always its own. Header statements
// (OPENQASM, include, qreg, creg, gate, opaque) yield no gates but
// mutate parser state; NumQubits grows as qreg declarations arrive and
// is final once the first gate is yielded (declarations after the
// first application are legal QASM and handled, so callers that need
// the final width up front should size to the device instead).
//
// Usage follows bufio.Scanner:
//
//	sc := qasm.NewGateScanner(r)
//	for sc.Scan() {
//		g := sc.Gate()
//		...
//	}
//	if err := sc.Err(); err != nil { ... }
type GateScanner struct {
	sc        *bufio.Scanner
	line, col int // input position after the statements split off so far

	p    parser
	idx  int // next unread gate in p.gates
	gate circuit.Gate
	err  error
}

// NewGateScanner returns a scanner reading QASM statements from r.
func NewGateScanner(r io.Reader) *GateScanner {
	s := &GateScanner{sc: bufio.NewScanner(r), line: 1, col: 1, p: newParser()}
	s.sc.Buffer(make([]byte, scanBufSize), math.MaxInt)
	s.sc.Split(s.split)
	return s
}

// Scan advances to the next gate, parsing further statements as
// needed. It returns false at end of input or on the first error
// (check Err to distinguish).
func (s *GateScanner) Scan() bool {
	for s.idx >= len(s.p.gates) {
		if s.err != nil {
			return false
		}
		if !s.sc.Scan() {
			s.err = s.sc.Err()
			return false
		}
		s.p.gates = s.p.gates[:0]
		s.idx = 0
		stmt := s.sc.Bytes()
		if err := s.p.run(unsafe.String(unsafe.SliceData(stmt), len(stmt)), s.line, s.col); err != nil {
			// Once a read has failed, the statement is cut short because
			// of it: report the read error.
			if rerr := s.sc.Err(); rerr != nil {
				err = rerr
			}
			s.err = err
			return false
		}
		s.line, s.col = s.p.lex.line, s.p.lex.col
	}
	s.gate = s.p.gates[s.idx]
	s.idx++
	return true
}

// Gate returns the gate produced by the last successful Scan.
func (s *GateScanner) Gate() circuit.Gate { return s.gate }

// Err returns the first error encountered (nil on clean EOF).
func (s *GateScanner) Err() error { return s.err }

// NumQubits returns the total width declared by the qreg statements
// parsed so far (flattened across registers, like Parse).
func (s *GateScanner) NumQubits() int { return s.p.numWires }

// Next adapts the scanner to the pull-source shape the streaming
// router consumes (core.GateSource): it returns the next gate and
// ok=true, or ok=false at clean EOF, or the parse error.
func (s *GateScanner) Next() (circuit.Gate, bool, error) {
	if s.Scan() {
		return s.gate, true, nil
	}
	return circuit.Gate{}, false, s.err
}

// split is the bufio.SplitFunc that cuts the input into statements,
// without their leading whitespace. At end of input an unterminated
// statement is returned as is, for the parser to report what it lacks.
// The scanner offers a statement again once more input has arrived, so
// the position moves only past what split consumes.
func (s *GateScanner) split(data []byte, atEOF bool) (int, []byte, error) {
	start, line, col := 0, s.line, s.col
	for ; start < len(data); start++ {
		if c := data[start]; c == '\n' {
			line++
			col = 1
		} else if c == ' ' || c == '\t' || c == '\r' {
			col++
		} else {
			break
		}
	}
	n := statementEnd(data[start:])
	if n < 0 {
		if !atEOF && start < len(data) {
			return 0, nil, nil // the statement goes on past the buffered input
		}
		n = len(data) - start // whitespace only, or unterminated at end of input
	}
	s.line, s.col = line, col
	if n == 0 {
		return start, nil, nil
	}
	return start + n, data[start : start+n], nil
}

// statementEnd returns the length of the statement at the start of b:
// through its ';' at brace depth zero, or through the '}' closing a
// top-level brace block (gate definitions carry no trailing
// semicolon). It returns -1 when b holds no end yet. Line comments and
// string literals are tracked so their contents never count as
// structure.
func statementEnd(b []byte) int {
	depth, comment, quoted := 0, false, false
	for i, c := range b {
		if comment {
			comment = c != '\n'
			continue
		}
		switch c {
		case '"':
			quoted = !quoted
		case '/':
			comment = !quoted && i > 0 && b[i-1] == '/'
		case '{':
			if !quoted {
				depth++
			}
		case '}':
			if !quoted && depth > 0 {
				if depth--; depth == 0 {
					return i + 1
				}
			}
		case ';':
			if !quoted && depth == 0 {
				return i + 1
			}
		}
	}
	return -1
}

// ScanGates streams the gates of QASM source r into fn, stopping on
// the first parse error or the first error fn returns. It is the
// callback flavor of GateScanner for callers that do not need the
// iterator shape.
func ScanGates(r io.Reader, fn func(circuit.Gate) error) error {
	sc := NewGateScanner(r)
	for sc.Scan() {
		if err := fn(sc.Gate()); err != nil {
			return err
		}
	}
	return sc.Err()
}
