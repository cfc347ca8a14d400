package core

import (
	"context"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// Router abstracts a qubit-mapping backend: anything that can take a
// logical circuit and produce a hardware-compliant physical circuit
// with layout accounting. SABRE (TrialRunner) is the production
// implementation; the greedy and A* baselines in internal/baseline and
// the annealing router in internal/route satisfy it too, so comparison
// studies can swap routers into the same pass pipeline.
//
// Implementations must be safe for concurrent Route calls and must be
// deterministic for a fixed Options.Seed.
type Router interface {
	// Name identifies the router in metrics and logs.
	Name() string
	// Route maps circ onto dev. It should honor ctx cancellation at
	// whatever granularity it can (trial boundaries at minimum) and
	// return ctx.Err() when cancelled before a result exists.
	Route(ctx context.Context, circ *circuit.Circuit, dev *arch.Device, opts Options) (*Result, error)
}
