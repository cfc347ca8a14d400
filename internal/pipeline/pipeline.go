// Package pipeline structures compilation as an explicit sequence of
// passes over a shared context — the staged-pipeline architecture that
// lets layout search, routing, basis transpilation, peephole
// optimization, scheduling and verification be composed, instrumented
// and parallelised independently instead of hiding behind one
// monolithic Compile call.
//
// A Pass transforms the shared Ctx; a Manager composes passes with
// per-pass timing/metrics and cancellation. Passes that route seed
// from Ctx.Options.Seed.
// RoutePass routes with any registered backend; its default,
// core.TrialRunner, runs the paper's best-of-N random-restart protocol
// on a bounded worker pool and selects the winner deterministically,
// so results are byte-identical at any worker count.
package pipeline

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/opt"
	"repro/internal/route"
	"repro/internal/sched"
)

// Ctx is the shared compilation context a pipeline of passes operates
// on. Passes read and write its fields; the Manager owns the metrics
// and cancellation plumbing. A Ctx is used by one pipeline run at a
// time and is not safe for concurrent mutation (parallelism lives
// inside passes, e.g. core.TrialRunner's worker pool).
type Ctx struct {
	// Source is OpenQASM 2.0 input for ParsePass; ignored when the
	// Circuit is constructed directly.
	Source string

	// Circuit is the current working circuit: logical before routing,
	// physical after. Each transforming pass replaces it.
	Circuit *circuit.Circuit

	// Original is the last pre-routing circuit, captured by RoutePass
	// for verification and overhead reporting.
	Original *circuit.Circuit

	// Device is the compilation target.
	Device *arch.Device

	// Options carries the SABRE configuration shared by layout and
	// routing passes; Options.Seed is the pipeline's deterministic
	// seed root.
	Options core.Options

	// CalVersion records the device calibration snapshot version a
	// preceding CalibratePass pinned (zero = no calibration pinned).
	CalVersion uint64

	// Layout, when set (Size > 0), is the initial layout routing must
	// start from (produced by LayoutPass or supplied by the caller).
	Layout mapping.Layout

	// Result is the routing outcome, set by RoutePass. Result.Circuit
	// stays the router's raw output even after later passes rewrite
	// Circuit.
	Result *core.Result

	// Schedule is set by SchedulePass.
	Schedule *sched.Schedule

	// Opt is set by PeepholePass.
	Opt *opt.Result

	// Metrics accumulates one entry per executed pass, in order.
	Metrics []PassMetric

	ctx context.Context
}

// Context returns the cancellation context of the running pipeline
// (context.Background outside a run).
func (pc *Ctx) Context() context.Context {
	if pc.ctx == nil {
		return context.Background()
	}
	return pc.ctx
}

// Err reports the pipeline's cancellation state.
func (pc *Ctx) Err() error { return pc.Context().Err() }

// PassMetric instruments one executed pass: its wall-clock time and a
// snapshot of the working circuit after it ran.
type PassMetric struct {
	Pass    string        `json:"pass"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Gates   int           `json:"gates"`
	Depth   int           `json:"depth"`
}

// Pass is one stage of the compilation pipeline. Run mutates the
// shared context and returns an error to abort the pipeline.
type Pass interface {
	Name() string
	Run(pc *Ctx) error
}

// Manager composes passes and executes them in order with per-pass
// timing and cancellation between passes. A
// Manager is immutable once built and safe to share across goroutines;
// each Run gets its own Ctx.
type Manager struct {
	passes []Pass
}

// New builds a Manager over the given passes.
func New(passes ...Pass) *Manager {
	return &Manager{passes: append([]Pass(nil), passes...)}
}

// Passes returns the composed pass names in execution order.
func (m *Manager) Passes() []string {
	names := make([]string, len(m.passes))
	for i, p := range m.passes {
		names[i] = p.Name()
	}
	return names
}

// Run executes the pipeline on pc without external cancellation.
func (m *Manager) Run(pc *Ctx) error {
	return m.RunContext(context.Background(), pc)
}

// RunContext executes the pipeline on pc, checking ctx before each
// pass (long passes additionally honor it internally, e.g. the trial
// runner at trial boundaries). The first pass error aborts the run;
// pc.Metrics records every pass that completed.
func (m *Manager) RunContext(ctx context.Context, pc *Ctx) error {
	if ctx == nil {
		ctx = context.Background()
	}
	pc.ctx = ctx
	defer func() { pc.ctx = nil }()
	for _, p := range m.passes {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("pipeline: cancelled before pass %s: %w", p.Name(), err)
		}
		//sabre:nondeterm-ok wall-clock elapsed metric; never feeds routing decisions
		start := time.Now()
		if err := p.Run(pc); err != nil {
			return fmt.Errorf("pipeline: pass %s: %w", p.Name(), err)
		}
		met := PassMetric{Pass: p.Name(), Elapsed: time.Since(start)}
		if pc.Circuit != nil {
			met.Gates = pc.Circuit.NumGates()
			met.Depth = pc.Circuit.Depth()
		}
		pc.Metrics = append(pc.Metrics, met)
	}
	return nil
}

// Compile is the one-call convenience: it builds a Ctx for the inputs,
// runs the pipeline under ctx, and returns the finished context.
func (m *Manager) Compile(ctx context.Context, circ *circuit.Circuit, dev *arch.Device, opts core.Options) (*Ctx, error) {
	pc := &Ctx{Circuit: circ, Device: dev, Options: opts}
	if err := m.RunContext(ctx, pc); err != nil {
		return pc, err
	}
	return pc, nil
}

// Build composes a Manager from pass names — the form the -passes
// flags and the daemon's JSON accept. Recognized names: parse,
// calibrate, layout, route (optionally route:<name> for any backend in
// the router registry — sabre, greedy, astar, anneal, plus anything
// registered at runtime), basis, peephole, schedule, verify.
// Names are case-insensitive; empty names (from trailing commas) are
// skipped.
func Build(names ...string) (*Manager, error) {
	var passes []Pass
	for _, name := range names {
		p, err := ByName(name)
		if err != nil {
			return nil, err
		}
		if p != nil {
			passes = append(passes, p)
		}
	}
	return New(passes...), nil
}

// ByName resolves one pass name (nil for an empty name).
func ByName(name string) (Pass, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return nil, nil
	}
	kind, arg, _ := strings.Cut(name, ":")
	switch kind {
	case "parse":
		return ParsePass{}, nil
	case "calibrate":
		return CalibratePass{}, nil
	case "layout":
		return LayoutPass{}, nil
	case "route":
		switch arg {
		case "", "sabre", "trials":
			// The default backend is core.TrialRunner with the pass's
			// pool, where the registry's sabre entry runs one worker;
			// both compute the identical result.
			return RoutePass{}, nil
		default:
			r, err := route.New(arg)
			if err != nil {
				return nil, err
			}
			return RoutePass{Router: r}, nil
		}
	case "basis":
		return BasisPass{}, nil
	case "peephole", "opt":
		return PeepholePass{}, nil
	case "schedule", "sched":
		return SchedulePass{}, nil
	case "verify":
		return VerifyPass{}, nil
	}
	return nil, fmt.Errorf("pipeline: unknown pass %q (parse|calibrate|layout|route[:<router>]|basis|peephole|schedule|verify)", name)
}

// PostRouting reports whether every name designates a pass that is
// valid after routing (basis, peephole, schedule, verify) — the subset
// batch jobs may request on top of the engine's own route stage.
func PostRouting(names []string) error {
	for _, name := range names {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "", "basis", "peephole", "opt", "schedule", "sched", "verify":
		default:
			return fmt.Errorf("pipeline: pass %q is not a post-routing pass (basis|peephole|schedule|verify)", name)
		}
	}
	return nil
}
