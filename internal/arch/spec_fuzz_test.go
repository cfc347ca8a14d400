package arch

import (
	"slices"
	"testing"
)

// rebuildQubits bounds the devices FuzzFromSpec builds a second time:
// a 1024-qubit full device takes about 1.7 s and 216 MB to build.
const rebuildQubits = 256

// FuzzFromSpec: FromSpec never panics, a spec it accepts names a device
// of 1 to 1024 qubits, and building the same spec again gives the same
// name, size and edges. The seed corpus holds every named device, each
// parameterized kind, and specs whose side product wraps or whose
// sycamore sides are below 2.
func FuzzFromSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		d, err := FromSpec(spec)
		if err != nil {
			if d != nil {
				t.Fatalf("FromSpec(%q) returned a device with its error %v", spec, err)
			}
			return
		}
		n := d.NumQubits()
		if n < 1 || n > 1024 {
			t.Fatalf("FromSpec(%q) accepted a device of %d qubits", spec, n)
		}
		if n > rebuildQubits {
			return
		}
		again, err := FromSpec(spec)
		if err != nil {
			t.Fatalf("FromSpec(%q) failed on the second build: %v", spec, err)
		}
		if again.Name() != d.Name() || again.NumQubits() != n || !slices.Equal(again.Edges(), d.Edges()) {
			t.Fatalf("FromSpec(%q) built %s (%d qubits, %d edges), then %s (%d qubits, %d edges)",
				spec, d.Name(), n, len(d.Edges()), again.Name(), again.NumQubits(), len(again.Edges()))
		}
	})
}
