package core

import (
	"context"
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
// The forward rows run Prepared.Traverse, the entry annealing steps
// and CompileWithLayout route through, recording the op log; all
// share the prepared tables and a warm scratch, so the gaps are purely
// the per-round scoring machinery. allocs/op is the 2 of the generator
// each iteration builds: the traversal itself allocates nothing
// (TestTraverseZeroAllocs).
func BenchmarkRoutePass(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	for _, name := range []string{"qft_16", "qft_20", "rd84_253", "9symml_195"} {
		bench, ok := workloads.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %s", name)
		}
		for _, mode := range []struct {
			name    string
			scoring Scoring
			reverse bool
		}{{"bitset", ScoringBitset, false}, {"exhaustive", ScoringExhaustive, false}, {"bitset/reverse", ScoringBitset, true}} {
			opts := DefaultOptions()
			opts.Scoring = mode.scoring
			p, err := Prepare(bench.Build(), dev, opts)
			if err != nil {
				b.Fatal(err)
			}
			// pass routes one traversal and returns its added gates.
			pass := func(init mapping.Layout, rng *rand.Rand, s *Scratch) int {
				if mode.reverse {
					r := p.traverse(init, rng, s, true, emitRecord, nil)
					return 3 * (r.swaps + r.bridges)
				}
				t, err := p.Traverse(context.Background(), init, rng, s)
				if err != nil {
					b.Fatal(err)
				}
				return t.Added
			}
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				scratch := NewScratch()
				rng := rand.New(rand.NewSource(1))
				init := mapping.Random(dev.NumQubits(), rng)
				// Warm under the timed loop's seeding, so the warm-up
				// routes exactly what each timed traversal routes.
				pass(init, rand.New(rand.NewSource(1)), scratch)
				b.ReportAllocs()
				b.ResetTimer()
				var added int
				for i := 0; i < b.N; i++ {
					added = pass(init, rand.New(rand.NewSource(1)), scratch)
				}
				b.ReportMetric(float64(added), "added")
			})
		}
	}
}
