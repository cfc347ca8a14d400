package core

import (
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/mapping"
)

// ScoreRoundProbe is a router parked at a steady-state SWAP-selection
// round of a fixed hard workload: 400 random CNOTs (seed 17) on the
// IBM Q20 Tokyo chip under the identity layout, drained to its first
// non-executable front layer, with every scratch buffer warmed by one
// scored round. Calling ScoreRound repeatedly then measures exactly
// one round — candidate collection, extended-set lookup, round-index
// rebuild, scoring, winner selection — with no allocation and no
// state drift (the winning SWAP is never applied). It exists so the
// benchmark table (cmd/benchtab) and the CI bench guard can gate the
// round's ns/op and allocs/op per PR with the same fixture the
// in-package alloc guard and BenchmarkScoreRound use.
type ScoreRoundProbe struct {
	r *router
}

// NewScoreRoundProbe builds the probe with the given scoring engine.
func NewScoreRoundProbe(scoring Scoring) *ScoreRoundProbe {
	dev := arch.IBMQ20Tokyo()
	mix := rand.New(rand.NewSource(17))
	c := circuit.New(20)
	for i := 0; i < 400; i++ {
		a := mix.Intn(20)
		b := mix.Intn(19)
		if b >= a {
			b++
		}
		c.Append(circuit.CX(a, b))
	}
	opts := DefaultOptions()
	opts.Scoring = scoring
	r := newPrepared(c, dev, opts).newRouter(mapping.Identity(20), rand.New(rand.NewSource(1)), nil, false, nil)
	r.drain()
	if len(r.s.front) == 0 {
		// Unreachable for this fixed workload (the dense random circuit
		// always blocks on Tokyo); a panic here means the fixture broke.
		panic("core: score-round probe workload drained completely")
	}
	_ = r.scoreRound()
	return &ScoreRoundProbe{r: r}
}

// ScoreRound runs one steady-state SWAP-selection round.
func (p *ScoreRoundProbe) ScoreRound() {
	p.r.scoreRound()
}
