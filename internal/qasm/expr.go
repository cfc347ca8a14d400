package qasm

import (
	"math"
	"strconv"
)

// exprOp is the operation of one expression node.
type exprOp uint8

const (
	opNum  exprOp = iota // the literal num
	opVar                // pi or a formal parameter, by name
	opNeg                // -l
	opCall               // name(l): sin, cos, tan, exp, ln or sqrt
	opAdd                // l + r
	opSub                // l - r
	opMul                // l * r
	opDiv                // l / r
	opPow                // l ^ r
)

// binOps maps the binary operator tokens to their operations.
var binOps = [...]exprOp{tokPlus: opAdd, tokMinus: opSub, tokStar: opMul, tokSlash: opDiv, tokCaret: opPow}

// exprNode is one node of a parsed parameter expression. Nodes live in
// a flat arena — parser.nodes while a statement is parsed, gateDef.nodes
// once a definition keeps them — and name their operands by index, so
// parsing an expression allocates nothing once the arena is warm.
// Expressions appear in gate parameter lists and inside gate bodies,
// where they may reference the gate's formal parameters.
type exprNode struct {
	op        exprOp
	num       float64
	name      string // opVar and opCall
	l, r      int32
	line, col int
}

// eval evaluates node i of nodes. formals and args bind a gate
// definition's formal parameter names to one application's values;
// both are nil at top level, where only pi is defined. A repeated
// formal name binds to its last occurrence.
func eval(nodes []exprNode, i int32, formals []string, args []float64) (float64, error) {
	n := &nodes[i]
	switch n.op {
	case opNum:
		return n.num, nil
	case opVar:
		if n.name == "pi" {
			return math.Pi, nil
		}
		for j := len(formals) - 1; j >= 0; j-- {
			if formals[j] == n.name {
				return args[j], nil
			}
		}
		return 0, errf(n.line, n.col, "unknown parameter %q", n.name)
	}
	l, err := eval(nodes, n.l, formals, args)
	if err != nil {
		return 0, err
	}
	switch n.op {
	case opNeg:
		return -l, nil
	case opCall:
		switch n.name {
		case "sin":
			return math.Sin(l), nil
		case "cos":
			return math.Cos(l), nil
		case "tan":
			return math.Tan(l), nil
		case "exp":
			return math.Exp(l), nil
		case "ln":
			return math.Log(l), nil
		case "sqrt":
			return math.Sqrt(l), nil
		}
		return 0, errf(n.line, n.col, "unknown function %q", n.name)
	}
	r, err := eval(nodes, n.r, formals, args)
	if err != nil {
		return 0, err
	}
	switch n.op {
	case opAdd:
		return l + r, nil
	case opSub:
		return l - r, nil
	case opMul:
		return l * r, nil
	case opDiv:
		if r == 0 {
			return 0, errf(n.line, n.col, "division by zero in parameter expression")
		}
		return l / r, nil
	default:
		return math.Pow(l, r), nil
	}
}

// evalParam evaluates a gate parameter. A non-finite angle is an error:
// no QASM number spells it, so the circuit could not be written back.
func evalParam(nodes []exprNode, root int32, formals []string, args []float64) (float64, error) {
	v, err := eval(nodes, root, formals, args)
	if err != nil {
		return 0, err
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		n := &nodes[root]
		return 0, errf(n.line, n.col, "parameter evaluates to %v", v)
	}
	return v, nil
}

func (p *parser) node(n exprNode) int32 {
	p.nodes = append(p.nodes, n)
	return int32(len(p.nodes) - 1)
}

// parseExpr parses an additive expression (lowest precedence) into
// p.nodes and returns its root.
func (p *parser) parseExpr() (int32, error) {
	left, err := p.parseTerm()
	if err != nil {
		return 0, err
	}
	for p.tok.kind == tokPlus || p.tok.kind == tokMinus {
		op, line, col := binOps[p.tok.kind], p.tok.line, p.tok.col
		if err := p.advance(); err != nil {
			return 0, err
		}
		right, err := p.parseTerm()
		if err != nil {
			return 0, err
		}
		left = p.node(exprNode{op: op, l: left, r: right, line: line, col: col})
	}
	return left, nil
}

func (p *parser) parseTerm() (int32, error) {
	left, err := p.parsePower()
	if err != nil {
		return 0, err
	}
	for p.tok.kind == tokStar || p.tok.kind == tokSlash {
		op, line, col := binOps[p.tok.kind], p.tok.line, p.tok.col
		if err := p.advance(); err != nil {
			return 0, err
		}
		right, err := p.parsePower()
		if err != nil {
			return 0, err
		}
		left = p.node(exprNode{op: op, l: left, r: right, line: line, col: col})
	}
	return left, nil
}

// parsePower handles '^' with right associativity.
func (p *parser) parsePower() (int32, error) {
	base, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	if p.tok.kind == tokCaret {
		line, col := p.tok.line, p.tok.col
		if err := p.advance(); err != nil {
			return 0, err
		}
		exp, err := p.parsePower()
		if err != nil {
			return 0, err
		}
		return p.node(exprNode{op: opPow, l: base, r: exp, line: line, col: col}), nil
	}
	return base, nil
}

func (p *parser) parseUnary() (int32, error) {
	switch p.tok.kind {
	case tokMinus:
		line, col := p.tok.line, p.tok.col
		if err := p.advance(); err != nil {
			return 0, err
		}
		arg, err := p.parseUnary()
		if err != nil {
			return 0, err
		}
		return p.node(exprNode{op: opNeg, l: arg, line: line, col: col}), nil
	case tokPlus:
		if err := p.advance(); err != nil {
			return 0, err
		}
		return p.parseUnary()
	case tokNumber:
		v, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return 0, errf(p.tok.line, p.tok.col, "invalid number %q", p.tok.text)
		}
		line, col := p.tok.line, p.tok.col
		if err := p.advance(); err != nil {
			return 0, err
		}
		return p.node(exprNode{op: opNum, num: v, line: line, col: col}), nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return 0, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return 0, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return 0, err
		}
		return e, nil
	case tokIdent:
		name, line, col := p.tok.text, p.tok.line, p.tok.col
		if err := p.advance(); err != nil {
			return 0, err
		}
		if p.tok.kind == tokLParen { // function call
			if err := p.advance(); err != nil {
				return 0, err
			}
			arg, err := p.parseExpr()
			if err != nil {
				return 0, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return 0, err
			}
			return p.node(exprNode{op: opCall, name: name, l: arg, line: line, col: col}), nil
		}
		return p.node(exprNode{op: opVar, name: name, line: line, col: col}), nil
	default:
		return 0, errf(p.tok.line, p.tok.col, "expected expression, found %v %q", p.tok.kind, p.tok.text)
	}
}
