package core

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/mapping"
	"repro/internal/workloads"
)

// BenchmarkRoutePass measures one full routing traversal over real
// Table II workloads (largest rows included), under each scoring
// engine: the branch-free bitset default and the exhaustive
// reference, plus the bitset engine over the reverse traversal, which
// a trial's middle pass runs on the dependency table read backwards.
// All share the prepared tables and warm scratch, so the gaps are
// purely the per-round scoring machinery; allocs/op ≈ a handful per
// pass (output circuit + layout clones), none of them per-round.
func BenchmarkRoutePass(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	for _, name := range []string{"qft_16", "qft_20", "rd84_253", "9symml_195"} {
		bench, ok := workloads.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %s", name)
		}
		circ := bench.Build().Widen(dev.NumQubits())
		for _, mode := range []struct {
			name    string
			scoring Scoring
			reverse bool
		}{{"bitset", ScoringBitset, false}, {"exhaustive", ScoringExhaustive, false}, {"bitset/reverse", ScoringBitset, true}} {
			opts := DefaultOptions()
			opts.Scoring = mode.scoring
			pr := NewPassRunner(circ, dev, opts)
			if mode.reverse {
				pr = pr.reversed()
			}
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				scratch := NewScratch()
				rng := rand.New(rand.NewSource(1))
				init := mapping.Random(dev.NumQubits(), rng)
				pr.Run(init, rng, scratch) // warm the scratch
				b.ReportAllocs()
				b.ResetTimer()
				var swaps int
				for i := 0; i < b.N; i++ {
					res := pr.Run(init, rand.New(rand.NewSource(1)), scratch)
					swaps = res.SwapCount
				}
				b.ReportMetric(float64(swaps), "swaps")
			})
		}
	}
}
