// Package circuit provides the quantum-circuit intermediate
// representation used throughout the library: gates, circuits, the
// dependency DAG (paper Fig. 4), front-layer extraction, ASAP depth
// scheduling, circuit reversal (Fig. 5) and SWAP decomposition
// (Fig. 3a).
//
// Following the paper (§II-A), circuits are built from the IBM
// elementary gate set: arbitrary single-qubit gates plus CNOT. SWAP is
// carried as a first-class gate so routers can insert it symbolically
// and decompose it into 3 CNOTs late (DecomposeSwaps).
package circuit

import (
	"fmt"
	"strings"
)

// Kind enumerates the gate kinds the IR understands. Single-qubit
// kinds act on Gate.Q0 only; two-qubit kinds act on Q0 (control) and
// Q1 (target).
type Kind uint8

const (
	// Single-qubit gates.
	KindH Kind = iota
	KindX
	KindY
	KindZ
	KindS
	KindSdg
	KindT
	KindTdg
	KindRX // one parameter
	KindRY // one parameter
	KindRZ // one parameter
	KindU1 // one parameter (phase)
	KindU2 // two parameters
	KindU3 // three parameters
	KindMeasure
	KindBarrier // scheduling fence; acts on one qubit in this IR

	// Two-qubit gates.
	KindCX
	KindCZ
	KindSwap

	numKinds
)

var kindNames = [numKinds]string{
	"h", "x", "y", "z", "s", "sdg", "t", "tdg",
	"rx", "ry", "rz", "u1", "u2", "u3", "measure", "barrier",
	"cx", "cz", "swap",
}

var kindArity = [numKinds]int{
	1, 1, 1, 1, 1, 1, 1, 1,
	1, 1, 1, 1, 1, 1, 1, 1,
	2, 2, 2,
}

var kindParams = [numKinds]int{
	0, 0, 0, 0, 0, 0, 0, 0,
	1, 1, 1, 1, 2, 3, 0, 0,
	0, 0, 0,
}

// String returns the lowercase QASM-style mnemonic for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Arity returns the number of qubits the kind acts on (1 or 2).
func (k Kind) Arity() int { return kindArity[k] }

// NumParams returns the number of real parameters the kind takes.
func (k Kind) NumParams() int { return kindParams[k] }

// TwoQubit reports whether the kind acts on two qubits. Only two-qubit
// gates constrain the mapping problem (§IV-A: single-qubit gates
// "can always be executed locally").
func (k Kind) TwoQubit() bool { return kindArity[k] == 2 }

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, numKinds)
	for k, n := range kindNames {
		m[n] = Kind(k)
	}
	return m
}()

// KindByName maps a QASM mnemonic ("cx", "u3", ...) to its Kind.
func KindByName(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// Gate is one operation in a circuit. For single-qubit kinds Q1 is -1.
// Params holds rotation angles in radians (length Kind.NumParams()).
type Gate struct {
	Kind   Kind
	Q0, Q1 int
	Params []float64
}

// G1 constructs a single-qubit gate.
func G1(k Kind, q int, params ...float64) Gate {
	if k.Arity() != 1 {
		panic(fmt.Sprintf("circuit: %v is not a single-qubit gate", k))
	}
	if len(params) != k.NumParams() {
		panic(fmt.Sprintf("circuit: %v takes %d params, got %d", k, k.NumParams(), len(params)))
	}
	return Gate{Kind: k, Q0: q, Q1: -1, Params: params}
}

// CX constructs a CNOT with the given control and target.
func CX(control, target int) Gate {
	return Gate{Kind: KindCX, Q0: control, Q1: target}
}

// CZ constructs a controlled-Z gate.
func CZ(a, b int) Gate {
	return Gate{Kind: KindCZ, Q0: a, Q1: b}
}

// Swap constructs a SWAP gate.
func Swap(a, b int) Gate {
	return Gate{Kind: KindSwap, Q0: a, Q1: b}
}

// TwoQubit reports whether the gate acts on two qubits.
func (g Gate) TwoQubit() bool { return g.Kind.TwoQubit() }

// Qubits returns the qubits the gate acts on (1 or 2 entries).
func (g Gate) Qubits() []int {
	if g.TwoQubit() {
		return []int{g.Q0, g.Q1}
	}
	return []int{g.Q0}
}

// On reports whether the gate touches qubit q.
func (g Gate) On(q int) bool {
	return g.Q0 == q || (g.TwoQubit() && g.Q1 == q)
}

// Remap returns a copy of the gate with qubits translated through f
// (e.g. a logical→physical layout).
func (g Gate) Remap(f func(int) int) Gate {
	out := g
	out.Q0 = f(g.Q0)
	if g.TwoQubit() {
		out.Q1 = f(g.Q1)
	}
	return out
}

// String renders the gate in QASM-like syntax for debugging.
func (g Gate) String() string {
	var sb strings.Builder
	sb.WriteString(g.Kind.String())
	if len(g.Params) > 0 {
		sb.WriteByte('(')
		for i, p := range g.Params {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%g", p)
		}
		sb.WriteByte(')')
	}
	fmt.Fprintf(&sb, " q[%d]", g.Q0)
	if g.TwoQubit() {
		fmt.Fprintf(&sb, ",q[%d]", g.Q1)
	}
	return sb.String()
}
