// Package batch provides a concurrent batch-compilation engine on top
// of the core SABRE compiler: a bounded worker pool that keeps every
// core busy across many circuit/device/options jobs, a sharded LRU
// result cache keyed by a canonical structural hash so repeated
// workloads hit memory instead of re-running the search, and
// deterministic per-job seed derivation so a batch compiles to
// byte-identical results regardless of worker count or scheduling
// order.
//
// The engine is long-lived and safe for concurrent use: a service can
// share one Engine across all request handlers, and overlapping
// batches naturally deduplicate — identical jobs in flight at the same
// time are compiled once and the result shared (single-flight).
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/route"
)

// Job is one compilation request: route Circuit onto Device under
// Options, then run the requested post-routing passes. The zero
// Options value selects the paper's defaults (including the decay
// heuristic) with a seed derived from the job's content (see
// Config.BaseSeed); partially-filled Options are used as given, with
// core's usual zero-field normalization.
type Job struct {
	Circuit *circuit.Circuit
	Device  *arch.Device
	Options core.Options

	// Trials, when positive, overrides Options.Trials — the best-of-N
	// fan-out width of the routing stage. It joins the cache key (via
	// the effective trial count), so jobs differing only in trials
	// never share a cached result.
	Trials int

	// Route names the routing backend from the router registry
	// (sabre, greedy, astar, anneal, ...); empty selects
	// the default sabre trial runner. The canonical name joins the
	// cache key, so jobs differing only in backend never share a
	// cached result. Unknown names fail the job.
	Route string

	// Passes names post-routing pipeline passes to run on the routed
	// circuit, in order: basis, peephole, schedule, verify. The list
	// joins the cache key. Unknown or non-post-routing names fail the
	// job.
	Passes []string

	// Tag is an optional caller label carried into the Result. It is
	// not part of the cache key.
	//sabre:nokey caller label echoed into Result; never affects compilation
	Tag string

	// UseCalibration routes the job under the device's live calibration
	// snapshot (arch.Device.Calibration): the engine resolves the
	// snapshot once per job, substitutes its noise model for
	// Options.Noise, and records the snapshot version in CalVersion —
	// which joins the cache key, so cached results stop being served
	// the moment the device is recalibrated. On a never-calibrated
	// device this is a no-op. Mutually overriding with an explicit
	// Options.Noise: the snapshot wins.
	UseCalibration bool

	// CalVersion is the calibration snapshot version the job is pinned
	// to (zero = no calibration). It joins the cache key. Callers
	// normally leave it zero and set UseCalibration; the fleet
	// scheduler sets it (with Options.Noise) to pin a job to the exact
	// snapshot it scored.
	CalVersion uint64

	// KeyState, when NewKeyState made it for this job's own Device and
	// Circuit, lets KeyOf resume from the hashed device and circuit
	// sections instead of encoding them again. Any other state is
	// ignored.
	//sabre:nokey a hashing shortcut: KeyOf's digest is the same with or without it
	KeyState *KeyState
}

// ResolveCalibration pins the job to its device's current calibration
// snapshot: when UseCalibration is set and the device has one, the
// snapshot's noise model replaces Options.Noise and CalVersion records
// the version. The flag is consumed so resolution is idempotent — the
// engine resolves once per job, before hashing, and KeyOf resolves
// defensively for callers hashing jobs themselves.
func (j Job) ResolveCalibration() Job {
	if !j.UseCalibration {
		return j
	}
	j.UseCalibration = false
	if j.Device == nil {
		return j
	}
	if snap := j.Device.Calibration(); snap != nil {
		j.Options.Noise = snap.Model
		j.CalVersion = snap.Version
	}
	return j
}

// Result is the outcome of one Job. On cache or single-flight hits the
// embedded *core.Result, Final circuit, and PassMetrics are shared
// between callers and must be treated as read-only (the engine never
// mutates them).
type Result struct {
	*core.Result

	// Final is the circuit after all requested passes ran (equal to
	// Result.Circuit when no post-routing passes were requested).
	Final *circuit.Circuit

	// PassMetrics records per-pass timing and circuit snapshots for
	// the route stage and every requested pass, in execution order.
	PassMetrics []pipeline.PassMetric

	// Tag echoes Job.Tag.
	Tag string
	// Key is the job's canonical cache key.
	Key Key
	// CalVersion is the calibration snapshot version the job compiled
	// under (zero = no calibration pinned).
	CalVersion uint64
	// CacheHit reports that the result was served from the cache or
	// joined an identical in-flight compilation.
	CacheHit bool
	// Report is metrics.Compare of the compiled job's Circuit and
	// Final, measured once when the pipeline finished and shared by
	// every result filled from that run. Equal keys hash every gate, so
	// each holder's circuit measures the same; Report.Name is the name
	// of the circuit that compiled.
	Report metrics.Report
	// Err is the compile error, if any; the embedded Result is nil
	// when Err is non-nil.
	Err error

	// out is the outcome the result was filled from, nil on error.
	out *outcome
}

// outcome is the shareable product of one pipeline run — what the
// cache stores and single-flight followers receive.
type outcome struct {
	res     *core.Result
	final   *circuit.Circuit
	metrics []pipeline.PassMetric
	report  metrics.Report

	// written marks an outcome whose program has been written once;
	// prog holds the kept encoding from the second write on (see
	// Result.WroteProgram). Holders of one outcome write concurrently,
	// so both are atomics, and prog is never written once published.
	written atomic.Bool
	prog    atomic.Pointer[[]byte]
}

// fill copies an outcome into a caller-visible Result.
func (r *Result) fill(o *outcome) {
	r.Result = o.res
	r.Final = o.final
	r.PassMetrics = o.metrics
	r.Report = o.report
	r.out = o
}

// KeptProgram returns the encoding of Final that WroteProgram kept on
// the result's shared outcome, or nil while none is kept. The bytes
// are shared by every holder of the outcome: read them, never write.
func (r *Result) KeptProgram() []byte {
	if r.out == nil {
		return nil
	}
	if p := r.out.prog.Load(); p != nil {
		return *p
	}
	return nil
}

// WroteProgram records that the caller wrote prog, its encoding of
// Final, into a response, and reports whether this call kept a copy.
// Results share an outcome only under equal keys, so its holders share
// one Final, and an encoding of Final alone is the same bytes for each.
// The first write of an outcome keeps nothing, so a result written
// once costs no bytes; the second keeps an exact-size copy of prog,
// never prog itself, for KeptProgram to serve to later writes. The
// copy lives as long as the outcome: in the cache or with its holders.
func (r *Result) WroteProgram(prog []byte) bool {
	o := r.out
	if o == nil || !o.written.Swap(true) {
		return false
	}
	kept := make([]byte, len(prog))
	copy(kept, prog)
	return o.prog.CompareAndSwap(nil, &kept)
}

// Stats is a snapshot of engine counters.
type Stats struct {
	Jobs     int64 // jobs processed
	Compiles int64 // jobs that ran the SABRE search
	Hits     int64 // jobs served from the result cache
	Shared   int64 // jobs that joined an identical in-flight compile
	Errors   int64 // jobs that failed
	Streams  int64 // streaming compilations served (CompileStream)
	Cached   int   // entries currently in the cache
}

// Config configures an Engine; the zero value picks sensible defaults.
type Config struct {
	// Workers bounds the number of concurrent compilations
	// (default GOMAXPROCS).
	Workers int

	// CacheEntries is the total result-cache capacity in entries
	// (default 1024). Negative disables caching; zero selects the
	// default.
	CacheEntries int

	// CacheShards is the shard count of the result cache, rounded up
	// to a power of two (default 16). More shards means less lock
	// contention between workers.
	CacheShards int

	// BaseSeed is mixed into the derived seed of every job whose
	// Options.Seed is zero. Two engines with the same BaseSeed produce
	// identical results for identical jobs; changing it re-randomizes
	// the whole batch while staying deterministic. Jobs with an
	// explicit Options.Seed ignore it.
	BaseSeed int64

	// TrialWorkers bounds the per-job routing-trial fan-out (default
	// 1: jobs are the engine's unit of parallelism, so a saturated
	// batch should not oversubscribe). A daemon serving sparse
	// single-job traffic sets this higher to parallelise each job's
	// best-of-N trials instead. Results are identical either way.
	TrialWorkers int

	// TrialPatience, when positive, runs the default sabre backend's
	// trials in adaptive mode: stop fanning out seeds after this many
	// consecutive non-improving trials. Like BaseSeed it is engine
	// configuration that affects results without joining the cache
	// key — every job in the engine compiles under the same patience,
	// and the outcome is still deterministic at any worker count.
	TrialPatience int
}

const (
	defaultCacheEntries = 1024
	defaultCacheShards  = 16
)

// ErrClosed is reported by jobs submitted after Close.
var ErrClosed = errors.New("batch: engine closed")

// errNilJob is reported for jobs missing a circuit or device.
var errNilJob = errors.New("batch: job needs a non-nil Circuit and Device")

// Engine is a concurrent compilation engine. Create one with
// NewEngine, share it freely between goroutines, and Close it when
// done to release the worker pool.
type Engine struct {
	cfg   Config
	tasks chan task
	wg    sync.WaitGroup
	cache *resultCache

	closeOnce sync.Once
	closed    atomic.Bool

	// inflight deduplicates concurrent identical jobs (single-flight).
	mu       sync.Mutex
	inflight map[Key]*flight

	jobs     atomic.Int64
	compiles atomic.Int64
	hits     atomic.Int64
	shared   atomic.Int64
	errs     atomic.Int64
	streams  atomic.Int64
}

type task struct {
	ctx  context.Context
	job  Job
	out  *Result
	done func()
}

type flight struct {
	wg  sync.WaitGroup
	res *outcome
	err error
}

// NewEngine starts an engine with cfg.Workers worker goroutines.
func NewEngine(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.TrialWorkers <= 0 {
		cfg.TrialWorkers = 1
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = defaultCacheEntries
	}
	if cfg.CacheShards <= 0 {
		cfg.CacheShards = defaultCacheShards
	}
	e := &Engine{
		cfg:      cfg,
		tasks:    make(chan task),
		cache:    newResultCache(cfg.CacheEntries, cfg.CacheShards),
		inflight: make(map[Key]*flight),
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Close drains the pool. Jobs already accepted complete; jobs
// submitted afterwards fail with ErrClosed. Close is idempotent and
// safe to call concurrently with submissions.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		close(e.tasks)
		e.wg.Wait()
	})
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Jobs:     e.jobs.Load(),
		Compiles: e.compiles.Load(),
		Hits:     e.hits.Load(),
		Shared:   e.shared.Load(),
		Errors:   e.errs.Load(),
		Streams:  e.streams.Load(),
		Cached:   e.cache.len(),
	}
}

// CompileBatch compiles all jobs concurrently on the worker pool and
// returns results in job order. It blocks until every job finishes.
// Safe to call from many goroutines at once; overlapping batches share
// the pool, the cache, and in-flight compilations.
func (e *Engine) CompileBatch(jobs []Job) []Result {
	return e.CompileBatchContext(context.Background(), jobs)
}

// CompileBatchContext is CompileBatch with cancellation: jobs not yet
// started when ctx is cancelled fail fast with ctx's error, and
// running compilations stop at their next trial boundary. It still
// blocks until every job has settled.
func (e *Engine) CompileBatchContext(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i := range jobs {
		e.enqueue(task{ctx: ctx, job: jobs[i], out: &results[i], done: wg.Done})
	}
	wg.Wait()
	return results
}

// Submit enqueues one job and returns a channel that yields its Result
// exactly once. The channel is buffered: the caller may drop it
// without leaking a goroutine.
func (e *Engine) Submit(job Job) <-chan Result {
	return e.SubmitContext(context.Background(), job)
}

// SubmitContext is Submit with cancellation. A job whose ctx is
// cancelled before a worker picks it up fails with ctx's error without
// compiling; a cancelled in-flight compilation stops at its next trial
// boundary — a disconnected client stops burning workers.
func (e *Engine) SubmitContext(ctx context.Context, job Job) <-chan Result {
	ch := make(chan Result, 1)
	out := new(Result)
	e.enqueue(task{ctx: ctx, job: job, out: out, done: func() { ch <- *out }})
	return ch
}

// enqueue hands a task to the pool, failing fast when the engine is
// closed. The closed check plus the send race is resolved by the
// recover: a send on the closed channel can only happen during
// shutdown, where ErrClosed is the correct answer.
func (e *Engine) enqueue(t task) {
	if e.closed.Load() {
		t.out.Err = ErrClosed
		t.done()
		return
	}
	defer func() {
		if recover() != nil {
			t.out.Err = ErrClosed
			t.done()
		}
	}()
	e.tasks <- t
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for t := range e.tasks {
		e.process(t)
	}
}

// process executes one job: cache lookup, single-flight join, or a
// real pipeline run with the job's derived seed.
func (e *Engine) process(t task) {
	defer t.done()
	e.jobs.Add(1)

	ctx := t.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	job := t.job
	t.out.Tag = job.Tag
	if job.Circuit == nil || job.Device == nil {
		t.out.Err = errNilJob
		e.errs.Add(1)
		return
	}
	// A cancelled job fails before compiling: the submitter is gone.
	if err := ctx.Err(); err != nil {
		t.out.Err = err
		e.errs.Add(1)
		return
	}

	// A fully zero Options means "the paper's defaults": substitute
	// them before hashing. core's normalized() cannot do this — the
	// zero Heuristic and zero DecayDelta are valid non-default
	// settings — so only the all-zero struct is rewritten; the seed
	// stays zero to request content-derived seeding.
	if job.Options == (core.Options{}) {
		job.Options = core.DefaultOptions()
		job.Options.Seed = 0
	}
	// The trial override folds into Options before hashing, so the
	// effective trial count is part of the cache identity.
	if job.Trials > 0 {
		job.Options.Trials = job.Trials
	}
	// Pin the job to the device's live calibration before hashing: the
	// snapshot version joins the cache key, so a recalibrated device
	// can never serve results routed under old noise data.
	job = job.ResolveCalibration()
	t.out.CalVersion = job.CalVersion
	job.Passes = normalizePasses(job.Passes)
	if err := pipeline.PostRouting(job.Passes); err != nil {
		t.out.Err = err
		e.errs.Add(1)
		return
	}
	// Resolve the routing backend up front: an unknown name fails the
	// job before it can poison the cache key space, and the canonical
	// name is what KeyOf hashes (aliases share cache entries).
	canonicalRoute, err := route.Canonical(job.Route)
	if err != nil {
		t.out.Err = err
		e.errs.Add(1)
		return
	}
	job.Route = canonicalRoute

	key := KeyOf(job)
	t.out.Key = key

	// Single-flight: the first goroutine in compiles; the rest wait on
	// its flight and share the outcome. Progress is guaranteed because
	// a leader never waits — it is the one running the compile. A
	// follower whose leader was cancelled by its *own* caller retries
	// (the dead flight is out of the inflight map by then), so one
	// client's disconnect never fails another client's identical
	// request; any other leader error is shared as-is, and errors are
	// never cached, so the next identical job recompiles.
	var f *flight
	for {
		if o, ok := e.cache.get(key); ok {
			t.out.fill(o)
			t.out.CacheHit = true
			e.hits.Add(1)
			return
		}
		e.mu.Lock()
		if lead, ok := e.inflight[key]; ok {
			e.mu.Unlock()
			lead.wg.Wait()
			if lead.err != nil {
				if isContextErr(lead.err) && ctx.Err() == nil {
					continue // leader's caller bailed; ours did not
				}
				t.out.Err = lead.err
				e.shared.Add(1)
				e.errs.Add(1)
				return
			}
			t.out.fill(lead.res)
			t.out.CacheHit = true
			e.shared.Add(1)
			return
		}
		// Re-check the cache before becoming leader: a previous leader
		// publishes to the cache before leaving the inflight map, so
		// this closes the window where a job misses both and
		// recompiles. (The loop-top get runs unlocked and can race a
		// departing leader; this one cannot.)
		if o, ok := e.cache.get(key); ok {
			e.mu.Unlock()
			t.out.fill(o)
			t.out.CacheHit = true
			e.hits.Add(1)
			return
		}
		f = new(flight)
		f.wg.Add(1)
		e.inflight[key] = f
		e.mu.Unlock()
		break
	}

	opts := deriveSeed(key, e.cfg.BaseSeed, job.Options)
	o, err := e.runPipeline(ctx, job, opts)
	e.compiles.Add(1)

	f.res, f.err = o, err
	if err == nil {
		e.cache.add(key, o)
	} else {
		e.errs.Add(1)
	}
	e.mu.Lock()
	delete(e.inflight, key)
	e.mu.Unlock()
	f.wg.Done()

	if err != nil {
		t.out.Err = err
		return
	}
	t.out.fill(o)
}

// PanicError is a panic recovered from a job's pipeline run: the
// panic value plus the goroutine stack at the point of the panic. The
// engine converts pipeline/router panics into this error instead of
// letting one poisoned circuit kill the process — the job fails, the
// worker (and every other job) keeps running. It is never cached, so
// a subsequent identical job recompiles.
type PanicError struct {
	// Value is what was passed to panic().
	Value any
	// Stack is the formatted goroutine stack captured in the deferred
	// recover.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("batch: pipeline panic: %v\n%s", e.Value, e.Stack)
}

// runPipeline builds and runs the job's pass pipeline: the routing
// stage (the bounded trial runner by default, or any registry backend
// the job names) plus the requested post-routing passes. A panic
// anywhere inside the pipeline — a router bug, a poisoned circuit —
// is recovered into a PanicError: it fails this job only, never the
// worker.
func (e *Engine) runPipeline(ctx context.Context, job Job, opts core.Options) (o *outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			o, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return e.runPipelineNoRecover(ctx, job, opts)
}

func (e *Engine) runPipelineNoRecover(ctx context.Context, job Job, opts core.Options) (*outcome, error) {
	rp := pipeline.RoutePass{Workers: e.cfg.TrialWorkers, Patience: e.cfg.TrialPatience}
	if job.Route != "" && job.Route != "sabre" {
		r, err := route.New(job.Route)
		if err != nil {
			return nil, err
		}
		rp = pipeline.RoutePass{Router: r}
	}
	passes := []pipeline.Pass{rp}
	for _, name := range job.Passes {
		p, err := pipeline.ByName(name)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	pc, err := pipeline.New(passes...).Compile(ctx, job.Circuit, job.Device, opts)
	if err != nil {
		return nil, err
	}
	return &outcome{res: pc.Result, final: pc.Circuit, metrics: pc.Metrics, report: metrics.Compare(job.Circuit, pc.Circuit)}, nil
}

// normalizePasses lowercases, trims, drops empty pass names, and
// canonicalizes aliases (opt→peephole, sched→schedule) so spelling
// variations of the same pipeline share cache entries.
func normalizePasses(names []string) []string {
	var out []string
	for _, name := range names {
		name = strings.ToLower(strings.TrimSpace(name))
		switch name {
		case "":
			continue
		case "opt":
			name = "peephole"
		case "sched":
			name = "schedule"
		}
		out = append(out, name)
	}
	return out
}

// isContextErr reports whether err is a cancellation/deadline error.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
