// Package sabre is a Go implementation of SABRE — the SWAP-based
// BidiREctional heuristic search algorithm for the qubit mapping
// problem on NISQ devices (Li, Ding, Xie, ASPLOS 2019).
//
// A quantum circuit assumes any two logical qubits can interact; real
// devices only couple neighbouring physical qubits. This package finds
// an initial logical→physical mapping and inserts SWAP gates so every
// two-qubit gate acts on coupled qubits, minimizing the added gates and
// depth:
//
//	dev  := sabre.IBMQ20Tokyo()
//	circ := sabre.QFT(16)
//	res, err := sabre.Compile(circ, dev, sabre.DefaultOptions())
//	// res.Circuit is hardware-compliant; res.AddedGates = 3·#SWAPs.
//
// # Pass pipeline
//
// Compilation is structured as an explicit pipeline of passes over a
// shared context — parse, layout, route, basis, peephole, schedule,
// verify — composed by a PassManager with per-pass timing and
// deterministic seeding. The routing stage is the paper's best-of-N
// protocol run on a bounded worker pool (TrialRunner): N independent
// reverse-traversal restarts sharing the device's precomputed distance
// matrices, with the winner selected deterministically, so results are
// byte-identical at any worker count:
//
//	res, err := sabre.CompileN(circ, dev, sabre.DefaultOptions(), 8)
//	pm, _ := sabre.BuildPipeline("route", "peephole", "basis", "verify")
//	pc, err := pm.Compile(ctx, circ, dev, opts)   // pc.Metrics per pass
//
// # Batch compilation
//
// For many circuits, NewEngine builds a concurrent batch-compilation
// engine: a bounded worker pool with a sharded LRU result cache keyed
// by a canonical hash of (circuit structure, device, options), plus
// deterministic per-job seed derivation, so batches compile to
// byte-identical results regardless of worker count or scheduling
// order and repeated workloads hit memory instead of re-running the
// search:
//
//	eng := sabre.NewEngine(sabre.BatchConfig{Workers: 8})
//	defer eng.Close()
//	results := eng.CompileBatch([]sabre.BatchJob{
//		{Circuit: sabre.QFT(16), Device: dev, Tag: "qft16"},
//		{Circuit: sabre.GHZ(12), Device: dev, Tag: "ghz12"},
//	})
//
// The one-shot CompileBatch helper wraps a throwaway engine for
// scripts. cmd/sabred serves the same engine over HTTP/JSON:
//
//	sabred -addr :8037 &
//	curl -X POST --data-binary @circ.qasm 'localhost:8037/compile?device=tokyo'
//
// returns the routed QASM plus metrics (added gates, depth, layouts,
// cache hit) as JSON; GET /devices lists the topology catalogue and
// GET /stats exposes the engine counters. cmd/benchtab's -batch mode
// drives the engine over the full Table II workload suite.
//
// # Async job queue
//
// Long compiles decouple from request lifetimes through the async job
// queue: SubmitAsync returns a job ID immediately, a bounded worker
// pool drains onto the engine, and completion is polled
// (JobStatus/WaitJob), pushed to a webhook URL with bounded retries,
// or both. Jobs cancel promptly at any point — the signal reaches the
// router's SWAP loop at round granularity:
//
//	ae := sabre.NewAsyncEngine(sabre.BatchConfig{}, sabre.JobQueueConfig{})
//	defer ae.Close(context.Background())
//	snap, _ := ae.SubmitAsync(sabre.BatchJob{Circuit: circ, Device: dev}, "")
//	snap, _ = ae.WaitJob(ctx, snap.ID, 30*time.Second) // long-poll
//
// cmd/sabred serves the same queue as its v2 API (POST /jobs,
// GET /jobs/{id}?wait=, DELETE /jobs/{id}) with graceful drain on
// shutdown; cmd/benchtab's -async mode exercises it over the workload
// suite.
//
// The facade re-exports the internal packages' curated surface: circuit
// construction, device topologies, OpenQASM 2.0 I/O, workload
// generators, verification and metrics. Everything is pure Go with no
// dependencies outside the standard library.
package sabre

import (
	"context"
	"io"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/baseline"
	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/jobqueue"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/qasm"
	"repro/internal/route"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/verify"
	"repro/internal/workloads"
)

// Core types, re-exported by alias so values flow freely between the
// facade and the internal packages.
type (
	// Circuit is an ordered gate list over n logical (or, after
	// compilation, physical) qubits.
	Circuit = circuit.Circuit
	// Gate is one operation; see the Kind* constants.
	Gate = circuit.Gate
	// Kind enumerates gate kinds (KindH, KindCX, ...).
	Kind = circuit.Kind
	// Device is an immutable hardware coupling model.
	Device = arch.Device
	// Edge is an undirected coupling between two physical qubits.
	Edge = arch.Edge
	// ErrorModel carries per-gate error rates and durations.
	ErrorModel = arch.ErrorModel
	// Options configures Compile; start from DefaultOptions.
	Options = core.Options
	// Heuristic selects the SWAP-scoring cost function.
	Heuristic = core.Heuristic
	// Result is Compile's outcome.
	Result = core.Result
	// Layout is a logical↔physical qubit bijection.
	Layout = mapping.Layout
	// Report carries gate/depth metrics for a circuit.
	Report = metrics.Report
	// Benchmark describes one entry of the paper's Table II suite.
	Benchmark = workloads.Benchmark
)

// Gate kinds.
const (
	KindH       = circuit.KindH
	KindX       = circuit.KindX
	KindY       = circuit.KindY
	KindZ       = circuit.KindZ
	KindS       = circuit.KindS
	KindSdg     = circuit.KindSdg
	KindT       = circuit.KindT
	KindTdg     = circuit.KindTdg
	KindRX      = circuit.KindRX
	KindRY      = circuit.KindRY
	KindRZ      = circuit.KindRZ
	KindU1      = circuit.KindU1
	KindU2      = circuit.KindU2
	KindU3      = circuit.KindU3
	KindMeasure = circuit.KindMeasure
	KindBarrier = circuit.KindBarrier
	KindCX      = circuit.KindCX
	KindCZ      = circuit.KindCZ
	KindSwap    = circuit.KindSwap
)

// Heuristics.
const (
	HeuristicBasic     = core.HeuristicBasic
	HeuristicLookahead = core.HeuristicLookahead
	HeuristicDecay     = core.HeuristicDecay
)

// --- Circuit construction ---

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(n int) *Circuit { return circuit.New(n) }

// NewNamedCircuit returns an empty named circuit over n qubits.
func NewNamedCircuit(name string, n int) *Circuit { return circuit.NewNamed(name, n) }

// G1 constructs a single-qubit gate of the given kind.
func G1(k Kind, q int, params ...float64) Gate { return circuit.G1(k, q, params...) }

// CX constructs a CNOT gate.
func CX(control, target int) Gate { return circuit.CX(control, target) }

// Toffoli returns the paper Fig. 1 15-gate CCX decomposition.
func Toffoli(c1, c2, target int) []Gate { return circuit.ToffoliDecomposition(c1, c2, target) }

// --- Devices ---

// IBMQ20Tokyo returns the 20-qubit IBM Q20 Tokyo coupling graph used in
// the paper's evaluation (Fig. 2).
func IBMQ20Tokyo() *Device { return arch.IBMQ20Tokyo() }

// IBMQX5 returns the 16-qubit IBM QX5 ladder.
func IBMQX5() *Device { return arch.IBMQX5() }

// LineDevice returns an n-qubit nearest-neighbour chain.
func LineDevice(n int) *Device { return arch.Line(n) }

// RingDevice returns an n-qubit cycle.
func RingDevice(n int) *Device { return arch.Ring(n) }

// GridDevice returns a rows×cols 2-D lattice.
func GridDevice(rows, cols int) *Device { return arch.Grid(rows, cols) }

// FullDevice returns an all-to-all coupled topology on n qubits.
func FullDevice(n int) *Device { return arch.FullyConnected(n) }

// IBMFalcon27 returns the 27-qubit heavy-hexagon IBM Falcon topology.
func IBMFalcon27() *Device { return arch.IBMFalcon27() }

// RigettiAspen returns an Aspen-style chain of fused octagons.
func RigettiAspen(octagons int) *Device { return arch.RigettiAspen(octagons) }

// Sycamore returns a Google Sycamore-style diagonal lattice.
func Sycamore(rows, cols int) *Device { return arch.Sycamore(rows, cols) }

// NewDevice builds a custom device from an edge list; it validates
// ranges and connectivity.
func NewDevice(name string, n int, edges []Edge) (*Device, error) {
	return arch.New(name, n, edges)
}

// CouplingEdge returns the canonical form of the edge {a, b}.
func CouplingEdge(a, b int) Edge { return arch.NewEdge(a, b) }

// Q20ErrorModel returns the Fig. 2 average chip parameters.
func Q20ErrorModel() ErrorModel { return arch.Q20ErrorModel() }

// NoiseModel carries per-edge CNOT error rates for variability-aware
// routing (set Options.Noise to use it).
type NoiseModel = arch.NoiseModel

// UniformNoise returns a noise model with one error rate everywhere.
func UniformNoise(e float64) *NoiseModel { return arch.UniformNoise(e) }

// RandomNoise draws per-edge error rates log-uniformly from [lo, hi].
func RandomNoise(dev *Device, lo, hi float64, rng *rand.Rand) *NoiseModel {
	return arch.RandomNoise(dev, lo, hi, rng)
}

// --- Calibration snapshots ---

// CalSnapshot is one immutable, versioned device calibration; see
// ApplyCalibration.
type CalSnapshot = arch.CalSnapshot

// ApplyCalibration validates the noise model and installs it as the
// device's current calibration snapshot, bumping the version. Routing
// that opts into the live calibration (BatchJob.UseCalibration, the
// "calibrate" pipeline pass, fleet scheduling) picks up the new
// snapshot immediately, and the version is part of the batch cache
// key — results routed under an older snapshot are never served.
func ApplyCalibration(dev *Device, m *NoiseModel) (*CalSnapshot, error) {
	return dev.ApplyCalibration(m)
}

// DeviceCalibration returns the device's current calibration snapshot,
// or nil if it was never calibrated.
func DeviceCalibration(dev *Device) *CalSnapshot { return dev.Calibration() }

// --- Fleet scheduling ---

// Fleet-scheduler types, re-exported by alias.
type (
	// FleetCandidate is one device offered to the scheduler, with its
	// current queue load.
	FleetCandidate = fleet.Candidate
	// FleetDecision is the outcome of one scheduling pass: the winning
	// device plus every candidate's score row.
	FleetDecision = fleet.Decision
	// FleetScore is one candidate's scoring row.
	FleetScore = fleet.Score
	// FleetWeights tunes the scheduler's error/depth/load terms (zero
	// value = defaults).
	FleetWeights = fleet.Weights
	// FleetScheduler dispatches jobs across a device fleet over a
	// shared batch engine, tracking in-flight load per device.
	FleetScheduler = fleet.Scheduler
)

// ScheduleFleet scores the circuit against every candidate — predicted
// error under each device's live calibration, a routed-depth estimate,
// and queue load — and returns the decision. Deterministic: lowest
// total score wins, ties break by device name then input order.
func ScheduleFleet(circ *Circuit, cands []FleetCandidate, w FleetWeights) (*FleetDecision, error) {
	return fleet.Schedule(circ, cands, w)
}

// NewFleetScheduler builds a load-tracking dispatcher over the fleet.
// The engine is shared, not owned: closing it is the caller's business.
func NewFleetScheduler(eng *Engine, devs []*Device, w FleetWeights) (*FleetScheduler, error) {
	return fleet.NewScheduler(eng, devs, w)
}

// --- Compilation ---

// DefaultOptions returns the paper's §V algorithm configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// Compile maps circ onto dev with SABRE (random-restart, bidirectional
// traversals) and returns the hardware-compliant physical circuit plus
// accounting. See core.Compile for details.
func Compile(circ *Circuit, dev *Device, opts Options) (*Result, error) {
	return core.Compile(circ, dev, opts)
}

// CompileWithLayout routes from a fixed initial layout (single forward
// traversal, no restarts).
func CompileWithLayout(circ *Circuit, dev *Device, init Layout, opts Options) (*Result, error) {
	return core.CompileWithLayout(context.Background(), circ, dev, init, opts)
}

// CompileN routes circ with the paper's best-of-N protocol on a
// bounded worker pool: n independent reverse-traversal trials (seeds
// Seed..Seed+n-1) sharing the device's precomputed distance matrices,
// with the winner selected deterministically (fewest added gates, ties
// by depth, then by seed). The result is byte-identical at any worker
// count and never worse than a single-trial Compile with the same
// seed.
func CompileN(circ *Circuit, dev *Device, opts Options, n int) (*Result, error) {
	return TrialRunner{Trials: n}.Route(context.Background(), circ, dev, opts)
}

// FindInitialMapping runs SABRE's reverse-traversal technique and
// returns only the improved initial layout.
func FindInitialMapping(circ *Circuit, dev *Device, opts Options) (Layout, error) {
	return core.InitialMapping(context.Background(), circ, dev, opts)
}

// IdentityLayout returns the layout mapping logical i to physical i.
func IdentityLayout(n int) Layout { return mapping.Identity(n) }

// --- Streaming compilation ---

type (
	// StreamOptions sizes the streaming window, lookahead, and output
	// chunking; zero values take the defaults.
	StreamOptions = core.StreamOptions
	// StreamStats is the accounting block of a streamed compilation,
	// including the gates/sec throughput axis.
	StreamStats = core.StreamStats
	// StreamResult carries the layouts and stats of a streamed route.
	StreamResult = core.StreamResult
	// GateSource feeds gates to the streaming router one at a time.
	GateSource = core.GateSource
	// StreamSink receives routed gates chunk by chunk. The slice is
	// reused between calls — copy anything retained.
	StreamSink = core.StreamSink
	// StreamJob describes one streaming compilation for the batch
	// engine (Engine.CompileStream / Engine.CompileQASMStream).
	StreamJob = batch.StreamJob
	// GateScanner parses OpenQASM 2.0 incrementally off a reader; it
	// satisfies GateSource without ever materializing the circuit.
	GateScanner = qasm.GateScanner
	// QASMStreamWriter serializes routed chunks back to OpenQASM 2.0.
	QASMStreamWriter = qasm.StreamWriter
)

// DefaultStreamOptions returns the streaming defaults: a 4096-slot
// window, 256 gates of lookahead, 1024-gate output chunks.
func DefaultStreamOptions() StreamOptions { return core.DefaultStreamOptions() }

// CompileStream routes an arbitrarily long gate stream onto dev in
// O(device + window) memory, emitting routed gates through sink as
// they retire. Semantics are the pinned streaming traversal (single
// trial, seeded initial layout); the output is deterministic and
// byte-identical to the materialized path on the same input. See
// core.RouteStream for the full contract.
func CompileStream(ctx context.Context, src GateSource, dev *Device, opts Options, sopts StreamOptions, sink StreamSink) (*StreamResult, error) {
	return core.RouteStream(ctx, src, dev, opts, sopts, sink, nil)
}

// NewCircuitSource adapts an in-memory circuit to a GateSource.
func NewCircuitSource(c *Circuit) GateSource { return core.NewCircuitSource(c) }

// NewGateScanner parses OpenQASM 2.0 from r one statement at a time.
func NewGateScanner(r io.Reader) *GateScanner { return qasm.NewGateScanner(r) }

// NewQASMStreamWriter writes a streamed program to w: header up
// front, then gates as chunks arrive.
func NewQASMStreamWriter(w io.Writer, numQubits int) *QASMStreamWriter {
	return qasm.NewStreamWriter(w, numQubits)
}

// NewVerifySink wraps a sink with on-the-fly hardware-compliance
// checking: any routed gate on an uncoupled physical pair aborts the
// stream with a positioned error.
func NewVerifySink(inner StreamSink, dev *Device) StreamSink {
	return pipeline.NewVerifySink(inner, dev)
}

// --- Pass pipeline ---

// Pipeline types, re-exported by alias.
type (
	// Pass is one stage of the compilation pipeline.
	Pass = pipeline.Pass
	// PassManager composes passes with per-pass timing/metrics,
	// deterministic seeding, and cancellation.
	PassManager = pipeline.Manager
	// PipelineContext is the shared context passes operate on.
	PipelineContext = pipeline.Ctx
	// PassMetric instruments one executed pass.
	PassMetric = pipeline.PassMetric
	// TrialRunner is the bounded-pool best-of-N routing backend.
	TrialRunner = core.TrialRunner
	// Router abstracts a routing backend (SABRE, greedy, A*,
	// annealing, or anything registered at runtime).
	Router = core.Router
)

// --- Router registry ---

// NewRouter resolves a routing backend by registry name: sabre,
// greedy, astar or anneal. The empty name yields the default sabre
// backend; unknown names return an error listing every registered
// router.
func NewRouter(name string) (Router, error) { return route.New(name) }

// RouterNames returns the registered routing-backend names, sorted.
func RouterNames() []string { return route.Names() }

// CompileAdaptive is CompileN with bandit-style early exit: trials
// stop fanning out once patience consecutive seeds (in seed order)
// fail to improve the incumbent best. The winner is selected over the
// deterministic surviving prefix, so it is byte-identical at any
// worker count and equals exhaustive selection over that same prefix;
// Result.TrialsRun reports the population actually searched.
func CompileAdaptive(ctx context.Context, circ *Circuit, dev *Device, opts Options, maxTrials, patience int) (*Result, error) {
	return TrialRunner{Trials: maxTrials, Patience: patience}.Route(ctx, circ, dev, opts)
}

// BuildPipeline composes a PassManager from pass names: parse, layout,
// route (or route:<name> for any registered backend — sabre, greedy,
// astar, anneal, ...), basis, peephole, schedule, verify.
// Run it with its Compile method:
//
//	pm, _ := sabre.BuildPipeline("route", "peephole", "verify")
//	pc, err := pm.Compile(ctx, circ, dev, opts)
//	// pc.Circuit is the final circuit; pc.Metrics has per-pass data.
func BuildPipeline(passes ...string) (*PassManager, error) {
	return pipeline.Build(passes...)
}

// NewPipeline composes a PassManager from Pass values, for custom
// passes; see ARCHITECTURE.md for how to write one.
func NewPipeline(passes ...Pass) *PassManager { return pipeline.New(passes...) }

// ValidatePostRoutingPasses checks that every name designates a pass
// that is valid after routing (basis, peephole, schedule, verify) —
// what batch jobs and the daemon accept on top of their own route
// stage.
func ValidatePostRoutingPasses(names []string) error { return pipeline.PostRouting(names) }

// --- Batch compilation ---

// Batch-engine types, re-exported by alias.
type (
	// Engine is a concurrent batch-compilation engine; see NewEngine.
	Engine = batch.Engine
	// BatchConfig configures NewEngine (zero value = defaults).
	BatchConfig = batch.Config
	// BatchJob is one circuit/device/options compilation request.
	BatchJob = batch.Job
	// BatchResult is the outcome of one BatchJob.
	BatchResult = batch.Result
	// BatchKey is the canonical cache identity of a BatchJob.
	BatchKey = batch.Key
	// BatchStats snapshots an engine's counters.
	BatchStats = batch.Stats
)

// NewEngine starts a batch-compilation engine: a bounded worker pool
// (default GOMAXPROCS workers) with a sharded LRU result cache and
// deterministic per-job seeding. Close it when done.
func NewEngine(cfg BatchConfig) *Engine { return batch.NewEngine(cfg) }

// CompileBatch compiles all jobs concurrently with a throwaway
// default-configured engine and returns results in job order. For
// repeated or overlapping batches, keep a NewEngine instance instead
// so its result cache survives between calls.
func CompileBatch(jobs []BatchJob) []BatchResult {
	eng := batch.NewEngine(batch.Config{})
	defer eng.Close()
	return eng.CompileBatch(jobs)
}

// BatchKeyOf computes the canonical cache key of a job.
func BatchKeyOf(job BatchJob) BatchKey { return batch.KeyOf(job) }

// --- Async job queue ---

// Job-queue types, re-exported by alias.
type (
	// JobQueue is the async job subsystem: Submit returns a job ID
	// immediately, a bounded worker pool drains onto the batch engine,
	// finished jobs are retained for a TTL, and completion can be
	// pushed to a webhook URL with bounded retries.
	JobQueue = jobqueue.Queue
	// JobQueueConfig configures NewAsyncEngine's job queue (zero value
	// = defaults).
	JobQueueConfig = jobqueue.Config
	// JobRequest is one async submission: a BatchJob plus delivery
	// options.
	JobRequest = jobqueue.Request
	// JobSnapshot is a point-in-time view of one async job.
	JobSnapshot = jobqueue.Snapshot
	// JobState enumerates the job lifecycle
	// (queued/running/done/failed/cancelled).
	JobState = jobqueue.State
	// JobQueueStats snapshots the queue counters.
	JobQueueStats = jobqueue.Stats
	// JobWebhookConfig bounds webhook delivery retries.
	JobWebhookConfig = jobqueue.WebhookConfig
	// JobDurability configures the crash-safe job log: set Dir (and a
	// fsync policy) in JobQueueConfig.Durable, and accepted jobs
	// survive a process crash and replay on the next boot
	// (NewAsyncEngine panics if the log cannot be opened or replayed).
	// Durable submissions must carry JobRequest.DeviceSpec.
	JobDurability = jobqueue.DurabilityConfig
	// JobRecoveryStats reports what a durable queue replayed at boot
	// (JobQueueStats.Recovery).
	JobRecoveryStats = jobqueue.RecoveryStats
	// PanicError is the typed failure a job gets when its pipeline
	// panics: the panic value plus the panicking goroutine's stack.
	// The worker pool survives; only the job fails.
	PanicError = batch.PanicError
)

// Job lifecycle states: queued → running → done | failed | cancelled.
const (
	JobQueued    = jobqueue.StateQueued
	JobRunning   = jobqueue.StateRunning
	JobDone      = jobqueue.StateDone
	JobFailed    = jobqueue.StateFailed
	JobCancelled = jobqueue.StateCancelled
)

// Job-queue errors.
var (
	// ErrJobQueueClosed is reported by submissions after Close.
	ErrJobQueueClosed = jobqueue.ErrClosed
	// ErrJobQueueFull is reported when the backlog is at QueueDepth.
	ErrJobQueueFull = jobqueue.ErrQueueFull
	// ErrJobNotFound is reported for unknown (or TTL-expired) job IDs.
	ErrJobNotFound = jobqueue.ErrNotFound
)

// AsyncEngine couples a batch engine with an async job queue — the
// in-process form of cmd/sabred's v2 API. Synchronous calls go
// through Batch(); long compiles go through SubmitAsync and are
// polled with JobStatus/WaitJob or pushed to a webhook:
//
//	ae := sabre.NewAsyncEngine(sabre.BatchConfig{}, sabre.JobQueueConfig{})
//	defer ae.Close(context.Background())
//	snap, _ := ae.SubmitAsync(sabre.BatchJob{Circuit: circ, Device: dev}, "")
//	snap, _ = ae.WaitJob(ctx, snap.ID, 30*time.Second)
type AsyncEngine struct {
	eng   *Engine
	queue *JobQueue
}

// NewAsyncEngine starts a batch engine plus a job queue draining onto
// it. Close releases both.
func NewAsyncEngine(cfg BatchConfig, qcfg JobQueueConfig) *AsyncEngine {
	eng := batch.NewEngine(cfg)
	return &AsyncEngine{eng: eng, queue: jobqueue.New(eng, qcfg)}
}

// Batch returns the underlying engine for synchronous compilation.
func (e *AsyncEngine) Batch() *Engine { return e.eng }

// Queue returns the underlying job queue.
func (e *AsyncEngine) Queue() *JobQueue { return e.queue }

// SubmitAsync parks a compilation on the job queue and returns its
// queued snapshot (ID, state) immediately. webhook, when non-empty,
// receives the completion payload via POST with bounded retries.
func (e *AsyncEngine) SubmitAsync(job BatchJob, webhook string) (JobSnapshot, error) {
	return e.queue.Submit(JobRequest{Job: job, Webhook: webhook})
}

// JobStatus returns the job's current snapshot.
func (e *AsyncEngine) JobStatus(id string) (JobSnapshot, error) { return e.queue.Get(id) }

// WaitJob long-polls: it returns as soon as the job is terminal or
// after wait, whichever comes first, with the then-current snapshot.
func (e *AsyncEngine) WaitJob(ctx context.Context, id string, wait time.Duration) (JobSnapshot, error) {
	return e.queue.Wait(ctx, id, wait)
}

// CancelJob cancels a queued job immediately and a running job within
// one SWAP round; terminal jobs are left untouched.
func (e *AsyncEngine) CancelJob(id string) (JobSnapshot, error) { return e.queue.Cancel(id) }

// Jobs lists every retained job, newest first.
func (e *AsyncEngine) Jobs() []JobSnapshot { return e.queue.List() }

// JobStats snapshots the queue counters.
func (e *AsyncEngine) JobStats() JobQueueStats { return e.queue.Stats() }

// Close drains the queue (accepted jobs finish unless ctx expires,
// at which point they are cancelled) and then closes the engine.
func (e *AsyncEngine) Close(ctx context.Context) error {
	err := e.queue.Close(ctx)
	e.eng.Close()
	return err
}

// --- Baselines (for comparison studies) ---

// GreedyCompile routes with the naive shortest-path baseline.
func GreedyCompile(circ *Circuit, dev *Device) (*baseline.GreedyResult, error) {
	return baseline.GreedyCompile(circ, dev)
}

// AStarCompile routes with the Zulehner-style layered A* baseline
// (the paper's BKA).
func AStarCompile(circ *Circuit, dev *Device, opts baseline.AStarOptions) (*baseline.AStarResult, error) {
	return baseline.AStarCompile(circ, dev, opts)
}

// --- QASM I/O ---

// ParseQASM parses OpenQASM 2.0 source.
func ParseQASM(src string) (*Circuit, error) { return qasm.Parse(src) }

// ParseQASMFile parses a .qasm file.
func ParseQASMFile(path string) (*Circuit, error) { return qasm.ParseFile(path) }

// WriteQASM serializes a circuit as OpenQASM 2.0.
func WriteQASM(w io.Writer, c *Circuit) error { return qasm.Write(w, c) }

// FormatQASM returns the QASM text of a circuit.
func FormatQASM(c *Circuit) string { return qasm.Format(c) }

// --- Workloads ---

// QFT returns the n-qubit quantum Fourier transform.
func QFT(n int) *Circuit { return workloads.QFT(n) }

// Ising returns a Trotterized 1-D transverse-field Ising circuit.
func Ising(n, steps int) *Circuit { return workloads.Ising(n, steps) }

// GHZ returns the n-qubit GHZ preparation circuit.
func GHZ(n int) *Circuit { return workloads.GHZ(n) }

// RandomCircuit returns a seeded random benchmark circuit.
func RandomCircuit(name string, n, gates int, cxFrac float64, seed int64) *Circuit {
	return workloads.RandomCircuit(name, n, gates, cxFrac, seed)
}

// Benchmarks returns the paper's 26-benchmark Table II suite.
func Benchmarks() []Benchmark { return workloads.All() }

// BenchmarkByName looks up one Table II benchmark.
func BenchmarkByName(name string) (Benchmark, bool) { return workloads.ByName(name) }

// --- Verification & metrics ---

// VerifyCompliant checks every two-qubit gate acts on coupled qubits.
func VerifyCompliant(c *Circuit, dev *Device) error {
	return verify.HardwareCompliant(c, dev.Connected)
}

// VerifyRouted checks (exactly, over GF(2)) that a routed CNOT/SWAP
// circuit implements the original under the result's layouts.
func VerifyRouted(orig *Circuit, res *Result) error {
	return verify.CheckRouted(orig, res.Circuit, res.InitialLayout, res.FinalLayout)
}

// VerifyRoutedStates checks equivalence by state-vector simulation
// (arbitrary gate kinds, ≤16 qubits).
func VerifyRoutedStates(orig *Circuit, res *Result, trials int, rng *rand.Rand) error {
	return verify.EquivalentStates(orig, res.Circuit, res.InitialLayout, res.FinalLayout, trials, rng)
}

// Simulate applies the circuit to |0...0⟩ and returns the amplitude
// vector, for inspection in examples and tests (≤24 qubits).
func Simulate(c *Circuit) []complex128 {
	s := sim.NewState(c.NumQubits())
	s.ApplyCircuit(c)
	out := make([]complex128, 1<<uint(c.NumQubits()))
	for b := range out {
		out[b] = s.Amplitude(uint64(b))
	}
	return out
}

// --- Post-processing ---

// OptimizeResult reports what the peephole optimizer did.
type OptimizeResult = opt.Result

// Optimize applies peephole rewrites (self-inverse cancellation,
// rotation merging) until fixpoint, preserving semantics exactly.
func Optimize(c *Circuit) OptimizeResult {
	return opt.Optimize(c, opt.DefaultOptions())
}

// Schedule is an explicit time-step (moments) view of a circuit.
type Schedule = sched.Schedule

// ScheduleASAP returns the as-soon-as-possible schedule; its depth
// equals Circuit.Depth().
func ScheduleASAP(c *Circuit) *Schedule { return sched.ASAP(c) }

// ScheduleALAP returns the as-late-as-possible schedule.
func ScheduleALAP(c *Circuit) *Schedule { return sched.ALAP(c) }

// MeasureCircuit returns gate/depth metrics (SWAPs counted as 3 CNOTs).
func MeasureCircuit(c *Circuit) Report { return metrics.Measure(c) }

// CompareCircuits reports routed against orig (the Table II columns).
func CompareCircuits(orig, routed *Circuit) Report { return metrics.Compare(orig, routed) }

// OverheadBreakdown decomposes routing overhead per kind.
type OverheadBreakdown = metrics.OverheadBreakdown

// BreakdownCircuits computes the overhead decomposition of routed vs
// the original circuit.
func BreakdownCircuits(orig, routed *Circuit) OverheadBreakdown {
	return metrics.Breakdown(orig, routed)
}

// QubitUtilization returns per-wire gate counts (SWAPs decomposed).
func QubitUtilization(c *Circuit) []int { return metrics.QubitUtilization(c) }

// EstimateFidelity returns the first-order success probability of the
// circuit under the error model.
func EstimateFidelity(c *Circuit, em ErrorModel) float64 { return metrics.EstimateFidelity(c, em) }

// EstimateDuration returns the critical-path execution time in ns.
func EstimateDuration(c *Circuit, em ErrorModel) float64 { return metrics.EstimateDuration(c, em) }
