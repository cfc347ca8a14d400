package qasm

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/circuit"
)

// gateDef is a user-defined gate (OpenQASM `gate` statement) that the
// parser inlines at application sites.
type gateDef struct {
	params []string   // formal parameter names
	args   []string   // formal qubit argument names
	body   []gateCall // calls in terms of formals
	nodes  []exprNode // expression arena the calls' params index into
}

// gateCall is one statement inside a gate body. A call to a defined
// gate binds when the definition is parsed, to a gate defined before
// it, so inlining can never recurse forever.
type gateCall struct {
	name      string
	def       *gateDef
	params    []int32 // expression roots in the definition's nodes
	args      []int   // indices into the definition's args
	line, col int
}

// qreg is a quantum register's slice of the flat wire space.
type qreg struct {
	name      string
	off, size int
}

// operand is a parsed qubit operand: wires first, first+1, ...,
// first+n-1, where n is 1 for an indexed qubit and the register size
// for a whole register.
type operand struct{ first, n int }

// paramSlab is how many gate parameters one slab allocation holds.
const paramSlab = 256

// parser consumes tokens and emits a circuit. Parse runs it over the
// whole source; GateScanner runs the same parser one statement at a
// time, so both accept the same dialect and emit the same gates.
type parser struct {
	lex lexer
	tok token

	regs     map[string]qreg
	cregs    map[string]int
	numWires int
	defs     map[string]*gateDef

	gates []circuit.Gate

	// Per-statement scratch, reused so that a statement allocates
	// nothing beyond what its gates keep.
	ops   []operand
	wires []int
	vals  []float64
	nodes []exprNode

	// slab backs the Params of emitted gates. Gates keep their
	// parameters, so the slab is only appended to and, once full,
	// replaced.
	slab []float64
}

func newParser() parser {
	return parser{
		regs:  make(map[string]qreg),
		cregs: make(map[string]int),
		defs:  make(map[string]*gateDef),
	}
}

// Parse reads OpenQASM 2.0 source and returns the flattened circuit.
// Measurements and barriers are preserved as gates; classical registers
// are validated but carry no data in this IR.
func Parse(src string) (*circuit.Circuit, error) {
	p := newParser()
	// Most statements are one gate, so this skips the doubling copies.
	// The shortest one-gate statement, `h q[0];`, is 7 bytes: input that
	// is mostly semicolons reserves no more than a valid program of its
	// length could fill.
	p.gates = make([]circuit.Gate, 0, min(strings.Count(src, ";"), len(src)/7))
	if err := p.run(src, 1, 1); err != nil {
		return nil, err
	}
	// The parser has range-checked every wire and rejected repeated
	// operands, so the gates are valid by construction, and the circuit
	// takes the slice over instead of copying it.
	return circuit.FromTrusted(p.numWires, p.gates), nil
}

// ParseFile reads and parses a QASM file; the circuit is named after
// the file's base name without extension.
func ParseFile(path string) (*circuit.Circuit, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	c.SetName(strings.TrimSuffix(base, ".qasm"))
	return c, nil
}

// ParseReader parses QASM from r.
func ParseReader(r io.Reader) (*circuit.Circuit, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Parse(string(data))
}

// run parses every statement of src, whose first byte sits at line:col
// of the input. A statement ends on its own final token and the next
// token is read only once it is done, so a statement's errors always
// precede the next one's: Parse and GateScanner, which hands the parser
// one statement at a time, fail alike.
func (p *parser) run(src string, line, col int) error {
	p.lex = lexer{src: src, line: line, col: col}
	for {
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind == tokEOF {
			return nil
		}
		if err := p.statement(); err != nil {
			return err
		}
	}
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokenKind) (token, error) {
	if err := p.check(k); err != nil {
		return token{}, err
	}
	t := p.tok
	return t, p.advance()
}

// check reports an error unless the current token is a k.
func (p *parser) check(k tokenKind) error {
	if p.tok.kind != k {
		return errf(p.tok.line, p.tok.col, "expected %v, found %v %q", k, p.tok.kind, p.tok.text)
	}
	return nil
}

func (p *parser) statement() error {
	if p.tok.kind != tokIdent {
		return errf(p.tok.line, p.tok.col, "expected statement, found %v %q", p.tok.kind, p.tok.text)
	}
	switch p.tok.text {
	case "OPENQASM":
		return p.header()
	case "include":
		return p.include()
	case "qreg":
		return p.qreg()
	case "creg":
		return p.creg()
	case "gate":
		return p.gateDefStmt()
	case "opaque":
		return p.opaque()
	case "measure":
		return p.measure()
	case "barrier":
		return p.barrier()
	case "reset":
		return errf(p.tok.line, p.tok.col, "reset is not supported by this subset")
	case "if":
		return errf(p.tok.line, p.tok.col, "classical control (if) is not supported by this subset")
	default:
		return p.application()
	}
}

func (p *parser) header() error {
	if err := p.advance(); err != nil {
		return err
	}
	v, err := p.expect(tokNumber)
	if err != nil {
		return err
	}
	if v.text != "2.0" && v.text != "2" {
		return errf(v.line, v.col, "unsupported OPENQASM version %q (want 2.0)", v.text)
	}
	return p.check(tokSemicolon)
}

func (p *parser) include() error {
	if err := p.advance(); err != nil {
		return err
	}
	name, err := p.expect(tokString)
	if err != nil {
		return err
	}
	if name.text != "qelib1.inc" {
		return errf(name.line, name.col, "unsupported include %q (only qelib1.inc)", name.text)
	}
	return p.check(tokSemicolon)
}

func (p *parser) qreg() error {
	if err := p.advance(); err != nil {
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, dup := p.regs[name.text]; dup {
		return errf(name.line, name.col, "qreg %q redeclared", name.text)
	}
	size, err := p.bracketSize()
	if err != nil {
		return err
	}
	if size > math.MaxInt-p.numWires {
		return errf(name.line, name.col, "qreg %q overflows the wire count", name.text)
	}
	reg := qreg{name: strings.Clone(name.text), off: p.numWires, size: size}
	p.regs[reg.name] = reg
	p.numWires += size
	return p.check(tokSemicolon)
}

func (p *parser) creg() error {
	if err := p.advance(); err != nil {
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	size, err := p.bracketSize()
	if err != nil {
		return err
	}
	p.cregs[strings.Clone(name.text)] = size
	return p.check(tokSemicolon)
}

func (p *parser) bracketSize() (int, error) {
	if _, err := p.expect(tokLBracket); err != nil {
		return 0, err
	}
	n, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	size, convErr := strconv.Atoi(n.text)
	if convErr != nil || size <= 0 {
		return 0, errf(n.line, n.col, "invalid register size %q", n.text)
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return 0, err
	}
	return size, nil
}

// opaque declarations have no body to inline: the declaration is read
// and ignored. It may hold only names, commas and parentheses, so no
// brace or semicolon can hide in one and GateScanner's statement
// boundaries always match the parser's.
func (p *parser) opaque() error {
	for p.tok.kind == tokIdent || p.tok.kind == tokComma || p.tok.kind == tokLParen || p.tok.kind == tokRParen {
		if err := p.advance(); err != nil {
			return err
		}
	}
	return p.check(tokSemicolon)
}

func (p *parser) gateDefStmt() error {
	if err := p.advance(); err != nil {
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	def := &gateDef{}
	p.nodes = p.nodes[:0]
	if p.tok.kind == tokLParen {
		if err := p.advance(); err != nil {
			return err
		}
		for p.tok.kind != tokRParen {
			id, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			def.params = append(def.params, strings.Clone(id.text))
			if p.tok.kind == tokComma {
				if err := p.advance(); err != nil {
					return err
				}
			}
		}
		if err := p.advance(); err != nil { // consume ')'
			return err
		}
	}
	for p.tok.kind == tokIdent {
		def.args = append(def.args, strings.Clone(p.tok.text))
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return err
			}
		}
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	for p.tok.kind != tokRBrace {
		if p.tok.kind == tokEOF {
			return errf(p.tok.line, p.tok.col, "unterminated gate body for %q", name.text)
		}
		if p.tok.kind == tokIdent && p.tok.text == "barrier" {
			// Barriers inside gate bodies are scheduling hints; skip.
			if err := p.advance(); err != nil {
				return err
			}
			for p.tok.kind == tokIdent || p.tok.kind == tokComma {
				if err := p.advance(); err != nil {
					return err
				}
			}
			if _, err := p.expect(tokSemicolon); err != nil {
				return err
			}
			continue
		}
		call, err := p.gateBodyCall(def)
		if err != nil {
			return err
		}
		def.body = append(def.body, call)
	}
	def.nodes = append([]exprNode(nil), p.nodes...)
	for i := range def.nodes {
		def.nodes[i].name = strings.Clone(def.nodes[i].name)
	}
	p.defs[strings.Clone(name.text)] = def
	return nil
}

func (p *parser) gateBodyCall(def *gateDef) (gateCall, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return gateCall{}, err
	}
	call := gateCall{name: strings.Clone(name.text), def: p.defs[name.text], line: name.line, col: name.col}
	if p.tok.kind == tokLParen {
		if err := p.advance(); err != nil {
			return gateCall{}, err
		}
		for p.tok.kind != tokRParen {
			root, err := p.parseExpr()
			if err != nil {
				return gateCall{}, err
			}
			call.params = append(call.params, root)
			if p.tok.kind == tokComma {
				if err := p.advance(); err != nil {
					return gateCall{}, err
				}
			}
		}
		if err := p.advance(); err != nil {
			return gateCall{}, err
		}
	}
	for p.tok.kind == tokIdent {
		// A repeated formal name binds to its last occurrence.
		arg := -1
		for i, a := range def.args {
			if a == p.tok.text {
				arg = i
			}
		}
		if arg < 0 {
			return gateCall{}, errf(p.tok.line, p.tok.col, "unknown qubit argument %q in gate body", p.tok.text)
		}
		call.args = append(call.args, arg)
		if err := p.advance(); err != nil {
			return gateCall{}, err
		}
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return gateCall{}, err
			}
		}
	}
	if _, err := p.expect(tokSemicolon); err != nil {
		return gateCall{}, err
	}
	return call, nil
}

func (p *parser) operand() (operand, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return operand{}, err
	}
	reg, ok := p.regs[name.text]
	if !ok {
		return operand{}, errf(name.line, name.col, "unknown quantum register %q", name.text)
	}
	if p.tok.kind == tokLBracket {
		idx, err := p.index()
		if err != nil {
			return operand{}, err
		}
		if idx < 0 || idx >= reg.size {
			return operand{}, errf(name.line, name.col, "index %d out of range for %s[%d]", idx, name.text, reg.size)
		}
		return operand{first: reg.off + idx, n: 1}, nil
	}
	return operand{first: reg.off, n: reg.size}, nil
}

// index parses "[n]" allowing zero.
func (p *parser) index() (int, error) {
	if _, err := p.expect(tokLBracket); err != nil {
		return 0, err
	}
	n, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	idx, convErr := strconv.Atoi(n.text)
	if convErr != nil {
		return 0, errf(n.line, n.col, "invalid index %q", n.text)
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return 0, err
	}
	return idx, nil
}

func (p *parser) measure() error {
	if err := p.advance(); err != nil {
		return err
	}
	src, err := p.operand()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokArrow); err != nil {
		return err
	}
	// Classical target: ident with optional index; validated only.
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, ok := p.cregs[name.text]; !ok {
		return errf(name.line, name.col, "unknown classical register %q", name.text)
	}
	if p.tok.kind == tokLBracket {
		if _, err := p.index(); err != nil {
			return err
		}
	}
	if err := p.check(tokSemicolon); err != nil {
		return err
	}
	for w := src.first; w < src.first+src.n; w++ {
		p.gates = append(p.gates, circuit.G1(circuit.KindMeasure, w))
	}
	return nil
}

func (p *parser) barrier() error {
	if err := p.advance(); err != nil {
		return err
	}
	p.ops = p.ops[:0]
	for {
		op, err := p.operand()
		if err != nil {
			return err
		}
		p.ops = append(p.ops, op)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
	if err := p.check(tokSemicolon); err != nil {
		return err
	}
	for _, op := range p.ops {
		for w := op.first; w < op.first+op.n; w++ {
			p.gates = append(p.gates, circuit.G1(circuit.KindBarrier, w))
		}
	}
	return nil
}

// application parses a gate application statement and appends the
// resulting elementary gates.
func (p *parser) application() error {
	name := p.tok
	if p.quickApply(name.text) {
		return nil
	}
	if err := p.advance(); err != nil {
		return err
	}
	p.vals = p.vals[:0]
	if p.tok.kind == tokLParen {
		if err := p.advance(); err != nil {
			return err
		}
		for p.tok.kind != tokRParen {
			p.nodes = p.nodes[:0]
			root, err := p.parseExpr()
			if err != nil {
				return err
			}
			v, err := evalParam(p.nodes, root, nil, nil)
			if err != nil {
				return err
			}
			p.vals = append(p.vals, v)
			if p.tok.kind == tokComma {
				if err := p.advance(); err != nil {
					return err
				}
			}
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
	p.ops = p.ops[:0]
	for {
		op, err := p.operand()
		if err != nil {
			return err
		}
		p.ops = append(p.ops, op)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
	if err := p.check(tokSemicolon); err != nil {
		return err
	}
	return p.broadcast(name, p.keepParams(p.vals), p.ops)
}

// quickApply parses the common statement `name a[i];` or
// `name a[i],b[j];` — a parameterless IR gate on declared, in-range,
// distinct qubits, separated by blanks only — straight from the source
// bytes following the gate name. It emits exactly the gate application
// would, and reports false without consuming anything for every other
// statement, so the general parser sees all the rest and every error.
//
//sabre:hotpath
func (p *parser) quickApply(name string) bool {
	k, ok := elementary(name)
	if !ok || k.NumParams() != 0 {
		return false
	}
	src, start := p.lex.src, p.lex.pos
	i := skipBlanks(src, start)
	if i == start {
		return false
	}
	q0, i, ok := p.quickOperand(src, i)
	if !ok {
		return false
	}
	i = skipBlanks(src, i)
	q1 := -1
	if k.TwoQubit() {
		if i >= len(src) || src[i] != ',' {
			return false
		}
		q1, i, ok = p.quickOperand(src, skipBlanks(src, i+1))
		if !ok || q1 == q0 {
			return false
		}
		i = skipBlanks(src, i)
	}
	if i >= len(src) || src[i] != ';' {
		return false
	}
	i++
	p.gates = append(p.gates, circuit.Gate{Kind: k, Q0: q0, Q1: q1})
	p.lex.col += i - start
	p.lex.pos = i
	return true
}

// quickOperand reads `reg[digits]` at src[i:] for quickApply, returning
// the flat wire and the offset after ']'.
//
//sabre:hotpath
func (p *parser) quickOperand(src string, i int) (wire, next int, ok bool) {
	j := i
	for j < len(src) && identPart[src[j]] {
		j++
	}
	if j == i || !identStart[src[i]] || j >= len(src) || src[j] != '[' {
		return 0, 0, false
	}
	reg, ok := p.regs[src[i:j]]
	if !ok {
		return 0, 0, false
	}
	j++
	idx, digits := 0, j
	for j < len(src) && isDigit(src[j]) && j-digits < 9 {
		idx = idx*10 + int(src[j]-'0')
		j++
	}
	if j == digits || j >= len(src) || src[j] != ']' || idx >= reg.size {
		return 0, 0, false
	}
	return reg.off + idx, j + 1, true
}

// skipBlanks skips the whitespace that does not start a new line.
func skipBlanks(src string, i int) int {
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\r') {
		i++
	}
	return i
}

// keepParams copies vals into the parameter slab and returns the copy
// (nil for none). Capacity is clipped so an append to one gate's
// Params can never overwrite another's.
func (p *parser) keepParams(vals []float64) []float64 {
	if len(vals) == 0 {
		return nil
	}
	if cap(p.slab)-len(p.slab) < len(vals) {
		p.slab = make([]float64, 0, max(paramSlab, len(vals)))
	}
	start := len(p.slab)
	p.slab = append(p.slab, vals...)
	return p.slab[start:len(p.slab):len(p.slab)]
}

// broadcast expands whole-register operands: all register operands must
// have equal length; single-wire operands are repeated.
func (p *parser) broadcast(name token, params []float64, ops []operand) error {
	length := 1
	for _, op := range ops {
		if op.n > 1 {
			if length > 1 && op.n != length {
				return errf(name.line, name.col, "mismatched register lengths in %q application", name.text)
			}
			length = op.n
		}
	}
	def := p.defs[name.text]
	for i := 0; i < length; i++ {
		p.wires = p.wires[:0]
		for _, op := range ops {
			w := op.first
			if op.n > 1 {
				w += i
			}
			p.wires = append(p.wires, w)
		}
		if err := p.emit(name.text, def, name.line, name.col, params, p.wires); err != nil {
			return err
		}
	}
	return nil
}

// elementary maps a gate name to its IR kind; measure and barrier are
// statements, not gates.
func elementary(name string) (circuit.Kind, bool) {
	k, ok := circuit.KindByName(name)
	return k, ok && k != circuit.KindMeasure && k != circuit.KindBarrier
}

// emit appends one elementary gate, or the inlined body of def, acting
// on resolved wires. Built-in gates take precedence over a definition
// of the same name.
func (p *parser) emit(name string, def *gateDef, line, col int, params []float64, wires []int) error {
	for i := 1; i < len(wires); i++ {
		for _, w := range wires[:i] {
			if w == wires[i] {
				return errf(line, col, "%s applied to the same qubit twice", name)
			}
		}
	}
	switch name {
	case "id", "u0":
		return nil // identity
	case "ccx":
		if len(wires) != 3 {
			return errf(line, col, "ccx needs 3 qubits, got %d", len(wires))
		}
		p.gates = append(p.gates, ToffoliDecomposition(wires[0], wires[1], wires[2])...)
		return nil
	case "cu1":
		if len(wires) != 2 || len(params) != 1 {
			return errf(line, col, "cu1 needs 1 param and 2 qubits")
		}
		p.gates = append(p.gates, CU1Decomposition(params[0], wires[0], wires[1])...)
		return nil
	case "cy":
		if len(wires) != 2 || len(params) != 0 {
			return errf(line, col, "cy needs 2 qubits and no params")
		}
		p.gates = append(p.gates, circuit.CYDecomposition(wires[0], wires[1])...)
		return nil
	case "ch":
		if len(wires) != 2 || len(params) != 0 {
			return errf(line, col, "ch needs 2 qubits and no params")
		}
		p.gates = append(p.gates, circuit.CHDecomposition(wires[0], wires[1])...)
		return nil
	case "crz":
		if len(wires) != 2 || len(params) != 1 {
			return errf(line, col, "crz needs 1 param and 2 qubits")
		}
		p.gates = append(p.gates, circuit.CRZDecomposition(params[0], wires[0], wires[1])...)
		return nil
	case "cu3":
		if len(wires) != 2 || len(params) != 3 {
			return errf(line, col, "cu3 needs 3 params and 2 qubits")
		}
		p.gates = append(p.gates, circuit.CU3Decomposition(params[0], params[1], params[2], wires[0], wires[1])...)
		return nil
	case "cswap":
		if len(wires) != 3 || len(params) != 0 {
			return errf(line, col, "cswap needs 3 qubits and no params")
		}
		p.gates = append(p.gates, circuit.CSwapDecomposition(wires[0], wires[1], wires[2])...)
		return nil
	case "rzz":
		if len(wires) != 2 || len(params) != 1 {
			return errf(line, col, "rzz needs 1 param and 2 qubits")
		}
		p.gates = append(p.gates, circuit.RZZDecomposition(params[0], wires[0], wires[1])...)
		return nil
	case "u", "U":
		name = "u3"
	}
	if k, ok := elementary(name); ok {
		if len(wires) != k.Arity() {
			return errf(line, col, "%s needs %d qubits, got %d", name, k.Arity(), len(wires))
		}
		if len(params) != k.NumParams() {
			return errf(line, col, "%s needs %d params, got %d", name, k.NumParams(), len(params))
		}
		if k.Arity() == 1 {
			p.gates = append(p.gates, circuit.G1(k, wires[0], params...))
		} else {
			p.gates = append(p.gates, circuit.Gate{Kind: k, Q0: wires[0], Q1: wires[1]})
		}
		return nil
	}
	if def == nil {
		return errf(line, col, "unknown gate %q", name)
	}
	if len(wires) != len(def.args) {
		return errf(line, col, "%s needs %d qubits, got %d", name, len(def.args), len(wires))
	}
	if len(params) != len(def.params) {
		return errf(line, col, "%s needs %d params, got %d", name, len(def.params), len(params))
	}
	for _, call := range def.body {
		p.vals = p.vals[:0]
		for _, root := range call.params {
			v, err := evalParam(def.nodes, root, def.params, params)
			if err != nil {
				return err
			}
			p.vals = append(p.vals, v)
		}
		callParams := p.keepParams(p.vals)
		callWires := make([]int, len(call.args))
		for i, a := range call.args {
			callWires[i] = wires[a]
		}
		if err := p.emit(call.name, call.def, call.line, call.col, callParams, callWires); err != nil {
			return err
		}
	}
	return nil
}

// ToffoliDecomposition re-exports the paper Fig. 1 CCX decomposition.
func ToffoliDecomposition(c1, c2, target int) []circuit.Gate {
	return circuit.ToffoliDecomposition(c1, c2, target)
}

// CU1Decomposition re-exports the controlled-phase decomposition.
func CU1Decomposition(lambda float64, control, target int) []circuit.Gate {
	return circuit.CU1Decomposition(lambda, control, target)
}
