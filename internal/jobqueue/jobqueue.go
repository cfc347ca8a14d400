// Package jobqueue decouples long compilations from request
// lifetimes: an async, durable-in-memory job subsystem on top of the
// batch engine. Callers Submit a compilation and get back a job ID
// immediately; a bounded worker pool drains the backlog onto
// batch.Engine.SubmitContext; the job walks queued → running →
// done/failed/cancelled; results are retained for a TTL and then
// garbage-collected; completion can additionally be pushed to a
// caller-supplied webhook URL with bounded retries.
//
// The queue is the daemon-mode chassis (cmd/sabred's v2 /jobs API):
// synchronous POST /compile cannot serve Table II-scale workloads that
// run for seconds, so the daemon parks them here and the client polls,
// long-polls, or receives the webhook. Every job is individually
// cancellable at any point — while queued (it is skipped before a
// worker picks it up) and while running (its context propagates down
// to the router's SWAP loop, which checks it at round granularity).
//
// A Queue is safe for concurrent use. Results served from a Snapshot
// are shared with the engine's cache and must be treated as read-only.
package jobqueue

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/fleet"
	"repro/internal/joblog"
)

// State is a job's lifecycle position.
type State string

// The job lifecycle: queued → running → done | failed | cancelled.
// Cancellation can also strike while queued (queued → cancelled).
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final (done, failed or
// cancelled): the job will never transition again and its retention
// TTL is ticking.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Request is one async submission: the compilation itself plus
// delivery options.
type Request struct {
	// Job is the compilation, exactly as the synchronous engine path
	// takes it — same cache key, same deterministic seed derivation, so
	// an async job compiles to a byte-identical result.
	Job batch.Job

	// Webhook, when non-empty, is POSTed the completion payload once
	// the job reaches a terminal state, with bounded retries (see
	// WebhookConfig).
	Webhook string

	// DeviceSpec names Job.Device in the shared device-spec vocabulary
	// (arch.FromSpec). Durable queues require it: Job.Device.Name() is
	// a display label that does not round-trip through FromSpec, so the
	// spec is what the job log persists and what replay resolves.
	// Ignored (may be empty) on non-durable queues.
	DeviceSpec string

	// Fleet, when non-nil, records the fleet-scheduling decision that
	// chose Job.Device. The queue carries it through snapshots so
	// status responses can report how the device was picked; it does
	// not act on it.
	Fleet *fleet.Decision
}

// Snapshot is a point-in-time, caller-safe view of one job.
type Snapshot struct {
	ID      string
	State   State
	Request Request

	Created  time.Time
	Started  time.Time // zero until running
	Finished time.Time // zero until terminal

	// Err is the failure message (failed) or cancellation cause
	// (cancelled); empty otherwise.
	Err string

	// Result is the engine outcome, set only in StateDone. It is
	// shared with the engine's result cache: read-only.
	Result *batch.Result

	// Webhook reports delivery progress for jobs that requested one.
	Webhook WebhookStatus
}

// WebhookStatus tracks completion-callback delivery for one job.
type WebhookStatus struct {
	URL       string `json:"url,omitempty"`
	Attempts  int    `json:"attempts,omitempty"`
	Delivered bool   `json:"delivered,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// Stats is a snapshot of queue counters.
type Stats struct {
	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Expired   int64 `json:"expired"` // terminal jobs GC'd after TTL

	Queued  int `json:"queued"`  // waiting for a worker
	Running int `json:"running"` // on the engine right now
	Held    int `json:"held"`    // jobs currently retained (any state)

	WebhooksDelivered int64 `json:"webhooks_delivered"`
	WebhooksFailed    int64 `json:"webhooks_failed"` // retries exhausted

	// Recovery reports what boot-time replay found. Non-nil whenever
	// the queue has a job log (all-zero after a clean boot), nil on
	// non-durable queues.
	Recovery *RecoveryStats `json:"recovery,omitempty"`

	// Log is the job log's own counters; nil on non-durable queues.
	Log *joblog.Stats `json:"log,omitempty"`

	// LogErrors counts fail-open durability faults: transition appends
	// or compactions that failed after the job was already admitted.
	LogErrors int64 `json:"log_errors,omitempty"`
}

// WebhookConfig bounds completion-callback delivery.
type WebhookConfig struct {
	// MaxAttempts caps delivery tries per job (default 3). Anything
	// but a 2xx response counts as a failed attempt; 4xx responses
	// other than 408 and 429 are permanent and settle delivery as
	// failed on the first attempt — a consumer that rejects the
	// payload will keep rejecting it.
	MaxAttempts int

	// Backoff is the base delay before the second attempt, doubling
	// per retry up to MaxBackoff (default 250ms). The actual delay is
	// jittered into [backoff/2, backoff) by a deterministic hash of
	// (job ID, attempt), so a burst of completions does not hammer the
	// consumer in lockstep while tests stay reproducible.
	Backoff time.Duration

	// MaxBackoff caps the exponential growth (default 30s).
	MaxBackoff time.Duration

	// Timeout bounds each POST (default 10s).
	Timeout time.Duration

	// Client overrides the HTTP client (default http.DefaultClient
	// with Timeout applied per request context).
	Client *http.Client
}

// Config configures a Queue; the zero value picks sensible defaults.
type Config struct {
	// Workers bounds concurrent jobs handed to the engine (default
	// GOMAXPROCS). The engine has its own pool; queue workers mostly
	// park in SubmitContext, so this is the async concurrency level,
	// not extra CPU.
	Workers int

	// QueueDepth bounds the backlog of queued jobs (default 1024).
	// Submit fails fast with ErrQueueFull beyond it — backpressure
	// instead of unbounded memory.
	QueueDepth int

	// TTL is how long a terminal job (and its result) is retained for
	// polling before garbage collection (default 15m).
	TTL time.Duration

	// GCInterval is the reaper period (default TTL/4, clamped to
	// [1s, 1m]).
	GCInterval time.Duration

	// Webhook bounds completion-callback delivery.
	Webhook WebhookConfig

	// Payload, when non-nil, builds the webhook body for a terminal
	// job (the daemon uses this to ship its full compile response).
	// Nil selects the default payload: the snapshot's ID/state/error
	// plus summary metrics.
	Payload func(Snapshot) any

	// Durable enables the crash-safe job log (see DurabilityConfig);
	// the zero value keeps the queue purely in-memory. Durable queues
	// must be constructed with Open, not New.
	Durable DurabilityConfig
}

const (
	defaultQueueDepth = 1024
	defaultTTL        = 15 * time.Minute
)

// Errors reported by the queue.
var (
	ErrClosed    = errors.New("jobqueue: queue closed")
	ErrQueueFull = errors.New("jobqueue: backlog full")
	ErrNotFound  = errors.New("jobqueue: no such job")
)

// job is the internal mutable record; all fields are guarded by
// Queue.mu except the immutable id/seq/req.
type job struct {
	id  string
	seq int64
	req Request

	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	err      string
	result   *batch.Result
	webhook  WebhookStatus

	// payload is the encoded request as persisted in the job log's
	// accepted record (nil on non-durable queues and once the job is
	// terminal); compaction rewrites it verbatim for live jobs.
	payload []byte

	// cancel aborts the running compilation (nil unless running);
	// cancelRequested distinguishes a caller's cancel from an engine
	// error once SubmitContext returns.
	cancel          context.CancelFunc
	cancelRequested bool

	// done is closed on the terminal transition — the long-poll signal.
	done chan struct{}
}

// Queue is the async job subsystem. Create with New, share freely,
// Close when done.
type Queue struct {
	cfg Config
	eng *batch.Engine

	mu     sync.Mutex
	jobs   map[string]*job
	seq    int64
	closed bool

	pending chan *job
	workers sync.WaitGroup
	hooks   sync.WaitGroup

	// hookCtx aborts in-flight webhook deliveries when a drain
	// deadline expires.
	hookCtx    context.Context
	hookCancel context.CancelFunc

	gcStop chan struct{}
	gcDone chan struct{}

	now func() time.Time // injected by tests

	// log is the durability log (nil = in-memory queue); recovery is
	// what boot-time replay found; device resolves persisted device
	// specs; logErrs counts fail-open durability faults (guarded by mu
	// like the other counters).
	log      *joblog.Log
	recovery *RecoveryStats
	device   func(spec string) (*arch.Device, error)
	logErrs  int64

	submitted, doneN, failedN, cancelledN, expiredN int64
	hooksOK, hooksFailed                            int64
}

// New starts a queue draining onto eng. The engine is borrowed, not
// owned: Close drains the queue but leaves eng running. Durable
// configurations (Config.Durable.Dir set) must use Open, which can
// report log-open and replay failures; New panics on them.
func New(eng *batch.Engine, cfg Config) *Queue {
	q, err := Open(eng, cfg)
	if err != nil {
		panic(fmt.Sprintf("jobqueue: New: %v (durable queues must use Open)", err))
	}
	return q
}

// applyDefaults fills the zero Config fields in place.
func applyDefaults(cfg *Config) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.TTL <= 0 {
		cfg.TTL = defaultTTL
	}
	if cfg.GCInterval <= 0 {
		cfg.GCInterval = cfg.TTL / 4
		if cfg.GCInterval < time.Second {
			cfg.GCInterval = time.Second
		}
		if cfg.GCInterval > time.Minute {
			cfg.GCInterval = time.Minute
		}
	}
	if cfg.Webhook.MaxAttempts <= 0 {
		cfg.Webhook.MaxAttempts = 3
	}
	if cfg.Webhook.Backoff <= 0 {
		cfg.Webhook.Backoff = 250 * time.Millisecond
	}
	if cfg.Webhook.MaxBackoff <= 0 {
		cfg.Webhook.MaxBackoff = 30 * time.Second
	}
	if cfg.Webhook.Timeout <= 0 {
		cfg.Webhook.Timeout = 10 * time.Second
	}
	if cfg.Durable.CompactMinRecords <= 0 {
		cfg.Durable.CompactMinRecords = 512
	}
	if cfg.Durable.CompactFactor <= 1 {
		cfg.Durable.CompactFactor = 4
	}
}

// Submit registers a compilation and returns its job snapshot
// (StateQueued) immediately. It fails fast with ErrQueueFull when the
// backlog is at QueueDepth and ErrClosed after Close.
func (q *Queue) Submit(req Request) (Snapshot, error) {
	if req.Job.Circuit == nil || req.Job.Device == nil {
		return Snapshot{}, errors.New("jobqueue: job needs a non-nil Circuit and Device")
	}
	// The accepted record's payload formats the whole circuit. It reads
	// only the request, so it is encoded before the lock: Get, Wait,
	// List and job completions do not wait behind it.
	var payload []byte
	var encErr error
	if q.log != nil {
		payload, encErr = encodeRequest(req)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return Snapshot{}, ErrClosed
	}
	if encErr != nil {
		return Snapshot{}, encErr
	}
	q.seq++
	j := &job{
		id:      newID(q.seq),
		seq:     q.seq,
		req:     req,
		state:   StateQueued,
		created: q.now(),
		done:    make(chan struct{}),
		webhook: WebhookStatus{URL: req.Webhook},
		payload: payload,
	}
	select {
	case q.pending <- j:
	default:
		return Snapshot{}, fmt.Errorf("%w (depth %d)", ErrQueueFull, q.cfg.QueueDepth)
	}
	if q.log != nil {
		// The accepted record is the one append that must not fail
		// open: a job the log never admitted would silently vanish on
		// replay. The backlog slot is already taken, so mark the job
		// cancelled — the worker that picks it up skips it — and keep
		// it out of the map (never visible, never delivered).
		if err := q.log.Append(acceptedRecord(j)); err != nil {
			q.logErrs++
			j.state = StateCancelled
			return Snapshot{}, fmt.Errorf("jobqueue: durable accept: %w", err)
		}
	}
	q.jobs[j.id] = j
	q.submitted++
	return j.snapshotLocked(), nil
}

// Get returns the job's current snapshot.
func (q *Queue) Get(id string) (Snapshot, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return j.snapshotLocked(), nil
}

// Wait long-polls: it returns the job's snapshot as soon as it is
// terminal, or after `wait` (or ctx cancellation), whichever comes
// first — returning the then-current snapshot either way. wait <= 0
// degenerates to Get.
func (q *Queue) Wait(ctx context.Context, id string, wait time.Duration) (Snapshot, error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return Snapshot{}, ErrNotFound
	}
	snap := j.snapshotLocked()
	done := j.done
	q.mu.Unlock()
	if wait <= 0 || snap.State.Terminal() {
		return snap, nil
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
	case <-ctx.Done():
	}
	return q.Get(id)
}

// Cancel requests cancellation. A queued job transitions to
// StateCancelled immediately (the worker will skip it); a running
// job's context is cancelled, which the router honors within one SWAP
// round — its terminal transition happens when the engine returns.
// Cancelling an already-terminal job is a no-op. The returned snapshot
// reflects the post-call state.
func (q *Queue) Cancel(id string) (Snapshot, error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return Snapshot{}, ErrNotFound
	}
	q.cancelLocked(j, "cancelled by caller")
	snap := j.snapshotLocked()
	q.mu.Unlock()
	return snap, nil
}

// cancelLocked implements Cancel for one job; the caller holds q.mu.
func (q *Queue) cancelLocked(j *job, cause string) {
	switch j.state {
	case StateQueued:
		j.cancelRequested = true
		q.finishLocked(j, StateCancelled, cause, nil)
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
}

// List returns every retained job, newest first. The order is total:
// jobs admitted in the same clock tick tie-break on the queue's
// admission sequence (later submission first), so repeated listings
// never shuffle — Created alone left equal-timestamp neighbours in
// map-iteration order, which flipped between calls.
func (q *Queue) List() []Snapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	type row struct {
		snap Snapshot
		seq  int64
	}
	rows := make([]row, 0, len(q.jobs))
	//sabre:nondeterm-ok rows are fully sorted below
	for _, j := range q.jobs {
		rows = append(rows, row{snap: j.snapshotLocked(), seq: j.seq})
	}
	sort.Slice(rows, func(a, b int) bool {
		if !rows[a].snap.Created.Equal(rows[b].snap.Created) {
			return rows[a].snap.Created.After(rows[b].snap.Created)
		}
		return rows[a].seq > rows[b].seq
	})
	out := make([]Snapshot, len(rows))
	for i, r := range rows {
		out[i] = r.snap
	}
	return out
}

// Stats returns a snapshot of the queue counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := Stats{
		Submitted:         q.submitted,
		Done:              q.doneN,
		Failed:            q.failedN,
		Cancelled:         q.cancelledN,
		Expired:           q.expiredN,
		Held:              len(q.jobs),
		WebhooksDelivered: q.hooksOK,
		WebhooksFailed:    q.hooksFailed,
		LogErrors:         q.logErrs,
	}
	if q.recovery != nil {
		r := *q.recovery
		st.Recovery = &r
	}
	if q.log != nil {
		ls := q.log.Stats()
		st.Log = &ls
	}
	//sabre:nondeterm-ok counter fold; order-insensitive
	for _, j := range q.jobs {
		switch j.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		}
	}
	return st
}

// Loads returns the number of non-terminal jobs (queued plus running)
// per device name — the queue-congestion signal the fleet scheduler
// folds into its per-device score.
func (q *Queue) Loads() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int)
	//sabre:nondeterm-ok per-device counter fold; order-insensitive
	for _, j := range q.jobs {
		if (j.state == StateQueued || j.state == StateRunning) && j.req.Job.Device != nil {
			out[j.req.Job.Device.Name()]++
		}
	}
	return out
}

// Close drains the queue: no new submissions are accepted, jobs
// already accepted (queued and running) run to completion, webhook
// deliveries finish, then Close returns. If ctx expires first, every
// outstanding job and in-flight webhook is cancelled and Close returns
// once they settle (promptly — cancellation reaches the router's SWAP
// loop). Close is idempotent; the borrowed engine stays open.
func (q *Queue) Close(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	close(q.pending) // workers drain the backlog then exit
	q.mu.Unlock()

	close(q.gcStop)
	<-q.gcDone

	drained := make(chan struct{})
	go func() {
		q.workers.Wait()
		q.hooks.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		q.closeLog()
		return nil
	case <-ctx.Done():
	}
	// Deadline: abort everything still outstanding, then wait for the
	// (now fast) settle so no goroutine outlives Close.
	q.mu.Lock()
	//sabre:nondeterm-ok every job is cancelled; order is invisible
	for _, j := range q.jobs {
		q.cancelLocked(j, "cancelled by shutdown")
	}
	q.mu.Unlock()
	q.hookCancel()
	<-drained
	q.closeLog()
	return ctx.Err()
}

// worker drains the backlog onto the engine.
func (q *Queue) worker() {
	defer q.workers.Done()
	for j := range q.pending {
		q.run(j)
	}
}

// run executes one job end to end.
func (q *Queue) run(j *job) {
	q.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while waiting in the backlog.
		q.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.state = StateRunning
	j.started = q.now()
	j.cancel = cancel
	q.appendLocked(startedRecord(j))
	q.mu.Unlock()
	defer cancel()

	res := q.execute(ctx, j)

	q.mu.Lock()
	j.cancel = nil
	switch {
	case res.Err == nil:
		q.finishLocked(j, StateDone, "", &res)
	case j.cancelRequested:
		q.finishLocked(j, StateCancelled, "cancelled while running", nil)
	default:
		q.finishLocked(j, StateFailed, res.Err.Error(), nil)
	}
	q.mu.Unlock()
}

// execute hands the job to the engine behind a panic fence: the
// engine already recovers pipeline panics into batch.PanicError, but
// a panic anywhere else on the submission path (a poisoned option
// set, a broken custom router constructor) must also fail just this
// job — with the stack in the error — and never unwind the worker,
// which would deadlock every job behind it in the backlog.
func (q *Queue) execute(ctx context.Context, j *job) (res batch.Result) {
	defer func() {
		if r := recover(); r != nil {
			res = batch.Result{Err: &batch.PanicError{Value: r, Stack: debug.Stack()}}
		}
	}()
	return <-q.eng.SubmitContext(ctx, j.req.Job)
}

// finishLocked performs the terminal transition: state, counters, the
// long-poll signal, and webhook dispatch. The caller holds q.mu.
func (q *Queue) finishLocked(j *job, s State, errMsg string, res *batch.Result) {
	if j.state.Terminal() {
		return
	}
	j.state = s
	j.err = errMsg
	j.result = res
	j.finished = q.now()
	// Only a live job's accepted record is ever written again
	// (compaction), and the payload is the whole circuit as QASM.
	j.payload = nil
	switch s {
	case StateDone:
		q.doneN++
	case StateFailed:
		q.failedN++
	case StateCancelled:
		q.cancelledN++
	}
	close(j.done)
	q.appendLocked(terminalRecord(j))
	q.maybeCompactLocked()
	if j.req.Webhook != "" {
		q.hooks.Add(1)
		go q.deliver(j, j.snapshotLocked())
	}
}

// reaper garbage-collects expired terminal jobs on a timer.
func (q *Queue) reaper() {
	defer close(q.gcDone)
	tick := time.NewTicker(q.cfg.GCInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			q.gc(q.now())
		case <-q.gcStop:
			return
		}
	}
}

// gc drops terminal jobs whose TTL elapsed before now, returning how
// many were expired. Exposed to tests; the reaper calls it on a timer.
func (q *Queue) gc(now time.Time) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	//sabre:nondeterm-ok TTL filter deletes a fixed set; order is invisible
	for id, j := range q.jobs {
		if j.state.Terminal() && now.Sub(j.finished) >= q.cfg.TTL {
			delete(q.jobs, id)
			n++
		}
	}
	q.expiredN += int64(n)
	return n
}

// snapshotLocked copies the job into a caller-safe view; the caller
// holds q.mu.
func (j *job) snapshotLocked() Snapshot {
	return Snapshot{
		ID:       j.id,
		State:    j.state,
		Request:  j.req,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
		Err:      j.err,
		Result:   j.result,
		Webhook:  j.webhook,
	}
}

// newID returns a collision-free job ID: a monotonic sequence number
// (uniqueness) plus random bytes (unguessability across restarts).
func newID(seq int64) string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; the sequence
		// number alone still guarantees in-process uniqueness.
		return fmt.Sprintf("job-%d", seq)
	}
	return fmt.Sprintf("job-%d-%s", seq, hex.EncodeToString(b[:]))
}
