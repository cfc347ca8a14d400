package qasm

import "strconv"

// DeclaredQubits sums the sizes of the qreg declarations in src as the
// lexer reads them, stopping at the first lexical error. FuzzParseScan
// uses it to skip inputs whose broadcasts could need unbounded memory.
func DeclaredQubits(src string) int {
	l := newLexer(src)
	var last [4]token // the latest tokens, newest last
	total := 0
	for {
		t, err := l.next()
		if err != nil || t.kind == tokEOF {
			return total
		}
		copy(last[:], last[1:])
		last[3] = t
		if last[0].kind == tokIdent && last[0].text == "qreg" && last[1].kind == tokIdent &&
			last[2].kind == tokLBracket && last[3].kind == tokNumber {
			n, err := strconv.Atoi(last[3].text)
			if err != nil || n > 1<<30 {
				n = 1 << 30
			}
			total += max(n, 0)
		}
	}
}
