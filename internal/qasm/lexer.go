// Package qasm implements a reader and writer for the OpenQASM 2.0
// subset needed by the paper's benchmark suites (RevLib, QISKit,
// Quipper and ScaffCC exports all ship as QASM built on qelib1.inc).
//
// Supported: OPENQASM/include headers, qreg/creg declarations (multiple
// registers are flattened into one wire space), the qelib1 standard
// gates, user gate definitions (inlined at parse time), parameter
// expressions over pi with + - * / ^ and the usual unary functions,
// whole-register broadcast, measure, barrier and comments.
package qasm

import (
	"fmt"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSemicolon
	tokComma
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokLBrace
	tokRBrace
	tokArrow
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokCaret
	tokEquals
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokSemicolon:
		return "';'"
	case tokComma:
		return "','"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokArrow:
		return "'->'"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokCaret:
		return "'^'"
	case tokEquals:
		return "'=='"
	default:
		return "unknown token"
	}
}

// token is one lexical unit with its source position. text is a slice
// of the lexer's source, never a copy: for Parse that is the input
// string, for GateScanner the statement buffer viewed in place, which
// the next statement overwrites. Whatever the parser keeps beyond the
// current statement (register, gate and parameter names) it copies
// with strings.Clone.
type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// punct maps single-byte punctuation to its token kind (tokEOF = not
// punctuation). '-' and '=' need a second byte and are handled apart.
var punct = [256]tokenKind{
	';': tokSemicolon, ',': tokComma, '(': tokLParen, ')': tokRParen,
	'[': tokLBracket, ']': tokRBracket, '{': tokLBrace, '}': tokRBrace,
	'+': tokPlus, '*': tokStar, '/': tokSlash, '^': tokCaret,
}

// identStart and identPart classify identifier bytes. Bytes, not runes:
// a byte >= 0x80 counts as a letter when its Latin-1 rune does, which is
// the dialect this package has always accepted.
var identStart, identPart [256]bool

func init() {
	for c := 0; c < 256; c++ {
		identStart[c] = c == '_' || unicode.IsLetter(rune(c))
		identPart[c] = identStart[c] || isDigit(byte(c))
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// lexer converts QASM source into a token stream.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// Error is a QASM syntax or semantic error with source position.
type Error struct {
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("qasm:%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errf(line, col int, format string, args ...any) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// next returns the next token, skipping whitespace and comments.
//
//sabre:hotpath
func (l *lexer) next() (token, error) {
	src := l.src
	for l.pos < len(src) {
		switch c := src[l.pos]; {
		case c == '\n':
			l.pos++
			l.line++
			l.col = 1
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
			l.col++
		case c == '/' && l.pos+1 < len(src) && src[l.pos+1] == '/':
			end := l.pos + 2
			for end < len(src) && src[end] != '\n' {
				end++
			}
			l.col += end - l.pos
			l.pos = end
		default:
			return l.lexToken()
		}
	}
	return token{kind: tokEOF, line: l.line, col: l.col}, nil
}

// lexToken lexes the token starting at l.pos, which is neither
// whitespace nor a comment.
//
//sabre:hotpath
func (l *lexer) lexToken() (token, error) {
	src, start, line, col := l.src, l.pos, l.line, l.col
	c := src[start]
	end := start + 1
	kind := punct[c]
	switch {
	case kind != tokEOF:
	case c == '-':
		kind = tokMinus
		if end < len(src) && src[end] == '>' {
			kind = tokArrow
			end++
		}
	case c == '=':
		if end >= len(src) || src[end] != '=' {
			return token{}, errUnexpected(line, col, c)
		}
		kind = tokEquals
		end++
	case c == '"':
		// Strings may span lines; the token text drops the quotes.
		l.col++
		for end < len(src) && src[end] != '"' {
			if src[end] == '\n' {
				l.line++
				l.col = 1
			} else {
				l.col++
			}
			end++
		}
		if end == len(src) {
			return token{}, errUnterminated(line, col)
		}
		l.pos = end + 1
		l.col++
		return token{kind: tokString, text: src[start+1 : end], line: line, col: col}, nil
	case isDigit(c) || c == '.':
		kind = tokNumber
		seenExp := false
		for end < len(src) {
			nc := src[end]
			if isDigit(nc) || nc == '.' {
				end++
				continue
			}
			if (nc == 'e' || nc == 'E') && !seenExp {
				seenExp = true
				end++
				if end < len(src) && (src[end] == '+' || src[end] == '-') {
					end++
				}
				continue
			}
			break
		}
	case identStart[c]:
		kind = tokIdent
		for end < len(src) && identPart[src[end]] {
			end++
		}
	default:
		return token{}, errUnexpected(line, col, c)
	}
	l.col += end - start
	l.pos = end
	return token{kind: kind, text: src[start:end], line: line, col: col}, nil
}

func errUnexpected(line, col int, c byte) error {
	return errf(line, col, "unexpected character %q", c)
}

func errUnterminated(line, col int) error {
	return errf(line, col, "unterminated string literal")
}
