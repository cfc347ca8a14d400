// Package mapping implements the logical-to-physical qubit layout π and
// its inverse π⁻¹ (Table I of the SABRE paper).
//
// A Layout is a bijection between n logical qubits q0..q(n-1) and a
// subset of N physical qubits Q0..Q(N-1), with n ≤ N. Logical qubits
// are the wires of the input circuit; physical qubits are the nodes of
// the device coupling graph. When n < N the layout is padded with
// anonymous ancilla logical qubits so that the bijection is total: this
// mirrors how SABRE treats unused device qubits as swappable storage.
package mapping

import (
	"fmt"
	"math/rand"
	"strings"
)

// Layout is a total bijection between N logical and N physical qubits.
// The zero value is not usable; construct with Identity, Random, or
// FromLogicalToPhysical.
type Layout struct {
	l2p []int // l2p[q]  = physical qubit hosting logical q
	p2l []int // p2l[Qi] = logical qubit hosted on physical Qi
}

// Identity returns the layout mapping logical qubit i to physical qubit i.
func Identity(n int) Layout {
	if n < 0 {
		panic("mapping: negative layout size")
	}
	l := Layout{l2p: make([]int, n), p2l: make([]int, n)}
	for i := 0; i < n; i++ {
		l.l2p[i] = i
		l.p2l[i] = i
	}
	return l
}

// Random returns a uniformly random layout of size n drawn from rng.
func Random(n int, rng *rand.Rand) Layout {
	l := Identity(n)
	perm := rng.Perm(n)
	for q, p := range perm {
		l.l2p[q] = p
		l.p2l[p] = q
	}
	return l
}

// FromLogicalToPhysical builds a layout from an explicit logical→physical
// assignment. It returns an error unless l2p is a permutation of 0..len-1.
func FromLogicalToPhysical(l2p []int) (Layout, error) {
	n := len(l2p)
	l := Layout{l2p: make([]int, n), p2l: make([]int, n)}
	for i := range l.p2l {
		l.p2l[i] = -1
	}
	for q, p := range l2p {
		if p < 0 || p >= n {
			return Layout{}, fmt.Errorf("mapping: physical index %d out of range [0,%d)", p, n)
		}
		if l.p2l[p] != -1 {
			return Layout{}, fmt.Errorf("mapping: physical qubit %d assigned twice", p)
		}
		l.l2p[q] = p
		l.p2l[p] = q
	}
	return l, nil
}

// Size returns the number of qubits in the layout.
func (l Layout) Size() int { return len(l.l2p) }

// Phys returns π(q), the physical qubit hosting logical qubit q.
func (l Layout) Phys(q int) int { return l.l2p[q] }

// Log returns π⁻¹(p), the logical qubit hosted on physical qubit p.
func (l Layout) Log(p int) int { return l.p2l[p] }

// SwapPhysical exchanges the logical qubits hosted on physical qubits
// a and b. This is the state update performed by inserting a SWAP gate
// on the device edge (a, b).
func (l Layout) SwapPhysical(a, b int) {
	qa, qb := l.p2l[a], l.p2l[b]
	l.p2l[a], l.p2l[b] = qb, qa
	l.l2p[qa], l.l2p[qb] = b, a
}

// SwapLogical exchanges the physical locations of logical qubits qa and qb.
func (l Layout) SwapLogical(qa, qb int) {
	l.SwapPhysical(l.l2p[qa], l.l2p[qb])
}

// Clone returns a deep copy of the layout. Mutations of the copy do not
// affect the original.
func (l Layout) Clone() Layout {
	c := Layout{l2p: make([]int, len(l.l2p)), p2l: make([]int, len(l.p2l))}
	copy(c.l2p, l.l2p)
	copy(c.p2l, l.p2l)
	return c
}

// CopyInto makes *dst a deep copy of l, reusing dst's storage when it
// has room, so a warm copy allocates nothing. dst may share l's
// storage, which leaves both unchanged.
func (l Layout) CopyInto(dst *Layout) {
	n := len(l.l2p)
	if cap(dst.l2p) < n || cap(dst.p2l) < n {
		dst.l2p, dst.p2l = make([]int, n), make([]int, n)
	}
	dst.l2p, dst.p2l = dst.l2p[:n], dst.p2l[:n]
	copy(dst.l2p, l.l2p)
	copy(dst.p2l, l.p2l)
}

// LogicalToPhysical returns a copy of the underlying l2p permutation.
func (l Layout) LogicalToPhysical() []int {
	out := make([]int, len(l.l2p))
	copy(out, l.l2p)
	return out
}

// PhysicalToLogical returns a copy of the underlying p2l permutation.
func (l Layout) PhysicalToLogical() []int {
	out := make([]int, len(l.p2l))
	copy(out, l.p2l)
	return out
}

// Equal reports whether two layouts represent the same bijection.
func (l Layout) Equal(o Layout) bool {
	if len(l.l2p) != len(o.l2p) {
		return false
	}
	for i := range l.l2p {
		if l.l2p[i] != o.l2p[i] {
			return false
		}
	}
	return true
}

// Valid reports whether the layout is internally consistent: l2p and
// p2l are mutually inverse permutations.
func (l Layout) Valid() bool {
	if len(l.l2p) != len(l.p2l) {
		return false
	}
	for q, p := range l.l2p {
		if p < 0 || p >= len(l.p2l) || l.p2l[p] != q {
			return false
		}
	}
	return true
}

// Key returns a compact string key identifying the bijection, suitable
// for use as a map key (e.g. in the baseline A* visited set).
func (l Layout) Key() string {
	var sb strings.Builder
	sb.Grow(3 * len(l.l2p))
	for _, p := range l.l2p {
		sb.WriteByte(byte(p))
		sb.WriteByte(',')
	}
	return sb.String()
}

// String renders the layout as "q0->Q3 q1->Q0 ..." for debugging.
func (l Layout) String() string {
	var sb strings.Builder
	for q, p := range l.l2p {
		if q > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "q%d->Q%d", q, p)
	}
	return sb.String()
}
