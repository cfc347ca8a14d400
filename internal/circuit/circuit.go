package circuit

import (
	"fmt"
)

// Circuit is an ordered list of gates over NumQubits wires. The zero
// value is an empty circuit on zero qubits; use New for a sized one.
type Circuit struct {
	numQubits int
	gates     []Gate
	name      string
}

// New returns an empty circuit over n qubits.
func New(n int) *Circuit {
	if n < 0 {
		panic("circuit: negative qubit count")
	}
	return &Circuit{numQubits: n}
}

// NewNamed returns an empty named circuit over n qubits. The name is
// carried through compilation for reporting.
func NewNamed(name string, n int) *Circuit {
	c := New(n)
	c.name = name
	return c
}

// Name returns the circuit's name ("" if unnamed).
func (c *Circuit) Name() string { return c.name }

// SetName sets the circuit's name.
func (c *Circuit) SetName(name string) { c.name = name }

// NumQubits returns the number of wires.
func (c *Circuit) NumQubits() int { return c.numQubits }

// NumGates returns the total gate count g.
func (c *Circuit) NumGates() int { return len(c.gates) }

// Gates returns the gate list. The returned slice must not be modified;
// use Append to extend a circuit.
func (c *Circuit) Gates() []Gate { return c.gates }

// Gate returns the i-th gate.
func (c *Circuit) Gate(i int) Gate { return c.gates[i] }

// Append adds gates to the end of the circuit, validating qubit ranges.
func (c *Circuit) Append(gs ...Gate) *Circuit {
	for _, g := range gs {
		c.mustValidate(g)
		c.gates = append(c.gates, g)
	}
	return c
}

// mustValidate panics when g references wires outside the circuit or a
// two-qubit gate with identical operands. Builder misuse is a
// programming error, hence panic rather than error (matching the
// stdlib convention for index violations).
func (c *Circuit) mustValidate(g Gate) {
	if g.Q0 < 0 || g.Q0 >= c.numQubits {
		panic(fmt.Sprintf("circuit: gate %v qubit %d out of range [0,%d)", g.Kind, g.Q0, c.numQubits))
	}
	if g.TwoQubit() {
		if g.Q1 < 0 || g.Q1 >= c.numQubits {
			panic(fmt.Sprintf("circuit: gate %v qubit %d out of range [0,%d)", g.Kind, g.Q1, c.numQubits))
		}
		if g.Q0 == g.Q1 {
			panic(fmt.Sprintf("circuit: two-qubit gate %v with identical operands q%d", g.Kind, g.Q0))
		}
	}
}

// AppendTrusted appends gates without re-validating qubit ranges. For
// hot paths whose gates are valid by construction — a router remapping
// an already-validated circuit through a qubit bijection — where
// re-validating tens of thousands of gates per traversal is
// measurable. Callers must guarantee every gate references wires
// inside the circuit.
func (c *Circuit) AppendTrusted(gs ...Gate) *Circuit {
	c.gates = append(c.gates, gs...)
	return c
}

// FromTrusted returns a circuit over n qubits that takes over gates
// without copying or validating them. As for AppendTrusted, the caller
// guarantees every gate is valid; it must not use the slice afterwards.
func FromTrusted(n int, gates []Gate) *Circuit {
	c := New(n)
	c.gates = gates
	return c
}

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{numQubits: c.numQubits, name: c.name, gates: make([]Gate, len(c.gates))}
	copy(out.gates, c.gates)
	return out
}

// CountKind returns the number of gates of the given kind.
func (c *Circuit) CountKind(k Kind) int {
	n := 0
	for _, g := range c.gates {
		if g.Kind == k {
			n++
		}
	}
	return n
}

// CountTwoQubit returns the number of two-qubit gates.
func (c *Circuit) CountTwoQubit() int {
	n := 0
	for _, g := range c.gates {
		if g.TwoQubit() {
			n++
		}
	}
	return n
}

// Reverse returns the reverse circuit of paper Fig. 5: the same gates
// in reversed order. The reverse circuit has exactly the same two-qubit
// structure with dependencies mirrored, which is all the reverse
// traversal needs; gate inverses are intentionally not taken because
// routing is insensitive to the unitary details. The router does not
// build it (it reads the forward DAG backwards); Reverse is the
// reference that reverse traversal is tested against.
func (c *Circuit) Reverse() *Circuit {
	out := &Circuit{numQubits: c.numQubits, name: c.name + "_rev", gates: make([]Gate, len(c.gates))}
	for i, g := range c.gates {
		out.gates[len(c.gates)-1-i] = g
	}
	return out
}

// Depth returns the circuit depth d under ASAP scheduling: each gate
// starts as soon as all gates on its qubits before it have finished,
// every gate taking one time step.
func (c *Circuit) Depth() int {
	if c.numQubits == 0 {
		return 0
	}
	level := make([]int, c.numQubits)
	depth := 0
	for _, g := range c.gates {
		t := level[g.Q0]
		if g.TwoQubit() && level[g.Q1] > t {
			t = level[g.Q1]
		}
		t++
		level[g.Q0] = t
		if g.TwoQubit() {
			level[g.Q1] = t
		}
		if t > depth {
			depth = t
		}
	}
	return depth
}

// DecomposeSwaps returns a copy of the circuit with every SWAP expanded
// into 3 CNOTs (paper Fig. 3a): CX(a,b) CX(b,a) CX(a,b).
func (c *Circuit) DecomposeSwaps() *Circuit {
	out := &Circuit{numQubits: c.numQubits, name: c.name}
	for _, g := range c.gates {
		if g.Kind == KindSwap {
			out.gates = append(out.gates,
				CX(g.Q0, g.Q1), CX(g.Q1, g.Q0), CX(g.Q0, g.Q1))
		} else {
			out.gates = append(out.gates, g)
		}
	}
	return out
}

// InteractionPairs returns the set of distinct unordered logical-qubit
// pairs that share a two-qubit gate, with multiplicities. Used by
// initial-mapping heuristics and by tests that reason about
// embeddability.
func (c *Circuit) InteractionPairs() map[[2]int]int {
	out := make(map[[2]int]int)
	for _, g := range c.gates {
		if !g.TwoQubit() {
			continue
		}
		a, b := g.Q0, g.Q1
		if a > b {
			a, b = b, a
		}
		out[[2]int{a, b}]++
	}
	return out
}

// UsedQubits returns the sorted list of wires touched by at least one gate.
func (c *Circuit) UsedQubits() []int {
	used := make([]bool, c.numQubits)
	for _, g := range c.gates {
		used[g.Q0] = true
		if g.TwoQubit() {
			used[g.Q1] = true
		}
	}
	var out []int
	for q, u := range used {
		if u {
			out = append(out, q)
		}
	}
	return out
}

// Widen returns the circuit padded to n qubits (n must be at least
// NumQubits). Routing onto a device with N > n physical qubits widens
// the logical circuit with idle ancilla wires first. The result is a
// view: it shares c's gates rather than copying them, with the
// capacity clipped to their count, so an Append to either circuit
// reallocates or writes past the other's end and leaves the other
// unchanged.
func (c *Circuit) Widen(n int) *Circuit {
	if n < c.numQubits {
		panic(fmt.Sprintf("circuit: Widen(%d) below current size %d", n, c.numQubits))
	}
	return &Circuit{numQubits: n, name: c.name, gates: c.gates[:len(c.gates):len(c.gates)]}
}

// Equal reports structural equality (same wires, same gate list).
func (c *Circuit) Equal(o *Circuit) bool {
	if c.numQubits != o.numQubits || len(c.gates) != len(o.gates) {
		return false
	}
	for i, g := range c.gates {
		h := o.gates[i]
		if g.Kind != h.Kind || g.Q0 != h.Q0 || g.Q1 != h.Q1 || len(g.Params) != len(h.Params) {
			return false
		}
		for j := range g.Params {
			if g.Params[j] != h.Params[j] {
				return false
			}
		}
	}
	return true
}

// String renders a short summary.
func (c *Circuit) String() string {
	return fmt.Sprintf("circuit(%s: n=%d, g=%d, d=%d)", c.name, c.numQubits, len(c.gates), c.Depth())
}
