package arch

import (
	"fmt"
	"strconv"
	"strings"
)

// FromSpec constructs a device from its spec string — the shared
// vocabulary of the daemon's device field, benchtab's -fleet list, and
// anything else that names devices textually. Fixed names: tokyo
// (aliases ibmq20, q20), qx5 (ibmqx5), falcon27 (falcon).
// Parameterized families: grid:<r>x<c>, sycamore:<r>x<c>, line:<n>,
// ring:<n>, star:<n>, full:<n>, aspen:<octagons>. Specs are matched
// case-insensitively with surrounding whitespace ignored; sizes are
// capped at 1024 qubits.
func FromSpec(spec string) (*Device, error) {
	spec = strings.ToLower(strings.TrimSpace(spec))
	switch spec {
	case "tokyo", "ibmq20", "q20":
		return IBMQ20Tokyo(), nil
	case "qx5", "ibmqx5":
		return IBMQX5(), nil
	case "falcon", "falcon27":
		return IBMFalcon27(), nil
	}
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("unknown device %q", spec)
	}
	// dims parses <rows>x<cols>, each side at least minSide. Each side
	// is bounded before the product is taken, so the product cannot
	// wrap past the qubit cap.
	dims := func(minSide int) (int, int, error) {
		rs, cs, ok := strings.Cut(arg, "x")
		if !ok {
			return 0, 0, fmt.Errorf("device %q needs <rows>x<cols>", spec)
		}
		r, err1 := strconv.Atoi(rs)
		c, err2 := strconv.Atoi(cs)
		if err1 != nil || err2 != nil || r < minSide || c < minSide {
			return 0, 0, fmt.Errorf("device %q: bad dimensions %q (each side at least %d)", spec, arg, minSide)
		}
		if r > 1024 || c > 1024 || r*c > 1024 {
			return 0, 0, fmt.Errorf("device %q too large (max 1024 qubits)", spec)
		}
		return r, c, nil
	}
	switch kind {
	case "grid":
		r, c, err := dims(1)
		if err != nil {
			return nil, err
		}
		return Grid(r, c), nil
	case "sycamore":
		r, c, err := dims(2)
		if err != nil {
			return nil, err
		}
		return Sycamore(r, c), nil
	case "line", "ring", "star", "full", "aspen":
		n, err := strconv.Atoi(arg)
		if err != nil || n < 1 || n > 1024 {
			return nil, fmt.Errorf("device %q: bad size %q", spec, arg)
		}
		switch kind {
		case "line":
			return Line(n), nil
		case "ring":
			if n < 3 {
				return nil, fmt.Errorf("ring needs at least 3 qubits")
			}
			return Ring(n), nil
		case "star":
			if n < 2 {
				return nil, fmt.Errorf("star needs at least 2 qubits")
			}
			return Star(n), nil
		case "full":
			return FullyConnected(n), nil
		default:
			if n > 16 {
				return nil, fmt.Errorf("aspen supports at most 16 octagons")
			}
			return RigettiAspen(n), nil
		}
	}
	return nil, fmt.Errorf("unknown device %q", spec)
}
