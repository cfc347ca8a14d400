// Command sabred is a compilation daemon: it serves SABRE qubit
// mapping over HTTP/JSON on top of the concurrent batch engine
// (bounded worker pool + sharded LRU result cache), so heavy circuit
// traffic compiles as fast as the hardware allows and repeated
// circuits are served from memory.
//
//	sabred -addr :8037 -workers 8 -cache 4096
//
// # Synchronous API (v1)
//
//	POST /compile?device=tokyo[&seed=7&trials=5&bridge=1&heuristic=decay&route=anneal&passes=peephole,basis]
//	    Body: OpenQASM 2.0 source (or, with Content-Type
//	    application/json, {"qasm": "...", "device": "...",
//	    "options": {...}, "trials": 8, "route": "anneal",
//	    "passes": ["peephole"]}).
//	    Returns routed QASM plus metrics, including per-pass
//	    timing/gate/depth snapshots. Cancelled requests (client
//	    disconnects) stop compiling within one SWAP round.
//	GET  /devices    topology catalogue (incl. parameterized forms)
//	GET  /stats      engine + job-queue counters
//	GET  /healthz    liveness probe
//
// # Calibration API
//
// Devices carry versioned calibration snapshots (arch.CalSnapshot).
// Every compile — sync or async — pins the device's current snapshot
// and folds its version into the result-cache key, so pushing a new
// calibration invalidates stale cached routes by construction:
//
//	POST /calibrations/{device}
//	    Body: {"default": 0.01, "edges": [{"a": 0, "b": 1,
//	    "error": 0.04}, ...]}. Installs the snapshot (version bump);
//	    malformed rates or non-coupler edges are rejected with a 400
//	    naming the offending entry. Returns {"device", "version",
//	    "applied", "default", "edges"}.
//	GET  /calibrations/{device}
//	    The current snapshot, or 404 if never calibrated.
//
// Compile responses carry the snapshot version used as "cal_version"
// (0 = uncalibrated).
//
// # Fleet scheduling
//
// Instead of naming one device, a request may offer a candidate fleet
// and let the daemon pick: "fleet": ["tokyo", "grid:4x5"] in the JSON
// body, or ?fleet=tokyo,grid:4x5 (mutually exclusive with "device").
// The scheduler (internal/fleet) scores every candidate on predicted
// error under its live calibration, a routing-depth estimate, and
// current queue load, then compiles on the winner. The response's
// "fleet" object reports the chosen device, its calibration version,
// and the per-candidate score table; async jobs carry the same object
// in every /jobs view.
//
// # Async job API (v2)
//
// Long compiles (Table II-scale circuits run for seconds) should not
// be chained to a request lifetime; the v2 API parks them on the
// async job queue (internal/jobqueue) instead:
//
//	POST   /jobs            submit — same body forms as /compile, plus
//	                        "webhook" (JSON field or ?webhook= query
//	                        param): an absolute http(s) URL POSTed the
//	                        completion payload. Returns 202 Accepted,
//	                        a Location header and the queued job:
//	                        {"id": "job-1-ab12cd34ef56", "state":
//	                        "queued", ...}. A full backlog returns 503.
//	GET    /jobs/{id}       poll; ?wait=5s long-polls until the job is
//	                        terminal or the window elapses, returning
//	                        the current state either way. Windows over
//	                        the 1m cap are rejected with a 400 (not
//	                        silently clamped).
//	DELETE /jobs/{id}       cancel: a queued job dies immediately, a
//	                        running one within one SWAP round.
//	GET    /jobs            list retained jobs (results trimmed of
//	                        QASM) plus queue stats.
//
// Job states: queued → running → done | failed | cancelled. Terminal
// jobs (and their results) are retained -job-ttl for polling, then
// garbage-collected.
//
// # Webhook payload schema
//
// The webhook body is exactly the jobResponse a poller reads from
// GET /jobs/{id} — one schema for both delivery paths:
//
//	{
//	  "id":       "job-1-ab12cd34ef56",
//	  "state":    "done",                  // or "failed"/"cancelled"
//	  "created":  "2026-07-26T12:00:00Z",
//	  "started":  "...", "finished": "...",
//	  "error":    "...",                   // failed/cancelled detail
//	  "webhook":  {"url": "...", "attempts": 1, "delivered": false},
//	  "result":   { ...same fields as POST /compile's response... }
//	}
//
// Delivery is attempted up to 3 times with exponential backoff; any
// 2xx settles it. Requests carry X-Sabre-Job and X-Sabre-Attempt
// headers. The "result" object — including its "qasm" — is built by
// the same code path as the synchronous response, so an async job is
// byte-identical to POST /compile for the same request.
//
// Delivery stops early on a permanent 4xx (anything but 408/429): a
// consumer that rejects the payload will keep rejecting it.
//
// # Streaming API
//
// Million-gate traces should not be materialized on either side of
// the wire; ?stream=1 selects the windowed streaming compiler:
//
//	POST /compile?stream=1&device=tokyo[&chunk=1024&lookahead=256]
//	    Body: raw OpenQASM 2.0 of any length (no body cap, no JSON
//	    envelope). The routed program streams back incrementally as
//	    text/plain; routing statistics (X-Sabre-Swaps, X-Sabre-Gates-In,
//	    X-Sabre-Gates-Out, X-Sabre-Chunks, X-Sabre-Max-Window,
//	    X-Sabre-Gates-Per-Sec, X-Sabre-Bridges) arrive as HTTP trailers.
//	    A response without trailers is torn — the compile failed after
//	    bytes were committed. Client disconnect before the first byte
//	    maps to 499.
//
// That is the only streaming path: POST /jobs with a ?stream= value
// that asks to stream, and any ?stream= value but 0 or 1 (false,
// true and windowed are aliases), get a 400 naming it.
//
// # Durability & crash recovery
//
// With -job-log DIR the async queue writes every job lifecycle
// transition to an append-only, CRC-checked log (internal/joblog) and
// replays it on boot: jobs that were queued or running when the
// process died (SIGKILL, OOM, power) re-enter the backlog in their
// original admission order, keep their job IDs, and — compilation
// being deterministic — produce byte-identical results. Recovery
// counts appear under "queue"."recovery" in GET /stats. -fsync picks
// the sync policy: "always" (default; a job is on disk before its ID
// is returned), "interval" (bounded loss, amortized cost), "never".
// A corrupt log (not the torn tail a crash normally leaves — that is
// dropped silently) refuses to boot, naming the offending offset.
//
//	sabred -addr :8037 -job-log /var/lib/sabred/jobs -fsync always
//
// -fault-routes registers the scripted "panic" router for failure
// drills: a job routed with it fails with the panic and stack while
// the daemon keeps serving. Never enable it in production.
//
// On SIGINT/SIGTERM the daemon drains gracefully: in-flight HTTP
// requests finish, accepted jobs run to completion (webhooks
// included) within the -drain budget, then outstanding work is
// cancelled.
//
// Devices: tokyo (ibmq20), qx5, falcon27, plus parameterized
// line:<n>, ring:<n>, star:<n>, full:<n>, grid:<r>x<c>,
// sycamore:<r>x<c>, aspen:<octagons>.
package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/joblog"
	"repro/internal/jobqueue"
	"repro/internal/pipeline"
	"repro/internal/qasm"
	"repro/internal/route"
)

func main() {
	var (
		addr         = flag.String("addr", ":8037", "listen address")
		workers      = flag.Int("workers", 0, "compilation workers (0 = GOMAXPROCS)")
		trialWorkers = flag.Int("trial-workers", 0, "per-request routing-trial fan-out (0 = GOMAXPROCS)")
		cache        = flag.Int("cache", 4096, "result-cache entries (negative disables)")
		seed         = flag.Int64("seed", 1, "base seed for derived per-job seeds")
		patience     = flag.Int("patience", 0, "adaptive routing trials: stop after this many consecutive non-improving seeds (0 = exhaustive)")
		jobWorkers   = flag.Int("job-workers", 0, "async jobs compiled concurrently (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue-depth", 1024, "async job backlog bound (submissions beyond it get 503)")
		jobTTL       = flag.Duration("job-ttl", 15*time.Minute, "retention of finished async jobs for polling")
		drainTimeout = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight work")
		jobLogDir    = flag.String("job-log", "", "durable job-log directory: accepted async jobs survive a crash and replay on the next boot (empty = in-memory only)")
		fsyncMode    = flag.String("fsync", "always", "job-log sync policy: always (every append reaches disk before the job is acknowledged), interval, never")
		faultRoutes  = flag.Bool("fault-routes", false, "register the scripted fault routers (route \"panic\") for failure testing; never enable in production")
	)
	flag.Parse()

	if *faultRoutes {
		faults.RegisterPanicRouter()
	}
	fsyncPolicy, err := joblog.ParseFsync(*fsyncMode)
	if err != nil {
		log.Fatalf("sabred: %v", err)
	}

	if *trialWorkers <= 0 {
		// A daemon serves sparse single-circuit requests: parallelise
		// each request's best-of-N trials, not just across requests.
		*trialWorkers = runtime.GOMAXPROCS(0)
	}
	eng := batch.NewEngine(batch.Config{Workers: *workers, CacheEntries: *cache, BaseSeed: *seed, TrialWorkers: *trialWorkers, TrialPatience: *patience})
	defer eng.Close()

	srv, err := newServer(eng, jobqueue.Config{
		Workers:    *jobWorkers,
		QueueDepth: *queueDepth,
		TTL:        *jobTTL,
		Durable:    jobqueue.DurabilityConfig{Dir: *jobLogDir, Fsync: fsyncPolicy},
	})
	if err != nil {
		// A corrupt job log names the offending byte offset here; we
		// refuse to boot rather than silently drop acknowledged jobs.
		log.Fatalf("sabred: job log: %v", err)
	}
	if st := srv.queue.Stats(); st.Recovery != nil && st.Recovery.Replayed > 0 {
		log.Printf("sabred: job log replayed %d jobs (%d queued, %d running at crash, %d dropped)",
			st.Recovery.Replayed, st.Recovery.Queued, st.Recovery.Running, st.Recovery.Dropped)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("sabred: listen: %v", err)
	}
	// The actual address matters when -addr asks for port 0 (tests,
	// the CI smoke driver); log what the kernel granted.
	log.Printf("sabred: listening on %s (%d workers, cache %d)", ln.Addr(), eng.Workers(), *cache)

	hs := &http.Server{Handler: srv.routes()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	// Graceful drain: on SIGINT/SIGTERM stop accepting connections,
	// finish in-flight requests, then drain the async job queue —
	// accepted jobs complete (webhooks included) unless the drain
	// budget expires, at which point outstanding compilations are
	// cancelled (the router honors it within one SWAP round).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-done:
		log.Fatalf("sabred: serve: %v", err)
	case <-ctx.Done():
	}
	log.Printf("sabred: shutting down (drain %v)", *drainTimeout)
	// Release parked long-polls first: http.Shutdown waits for
	// in-flight requests, and a ?wait= poller would otherwise hold it
	// (and the shared drain budget) for up to a minute.
	close(srv.draining)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("sabred: http shutdown: %v", err)
	}
	if err := srv.queue.Close(shutdownCtx); err != nil {
		log.Printf("sabred: job-queue drain: %v", err)
	}
	log.Printf("sabred: drained")
}

// maxBodyBytes bounds a compile request body (large arithmetic
// benchmarks are ~1 MB of QASM; 16 MB leaves ample headroom).
const maxBodyBytes = 16 << 20

// maxTrials bounds the client-requested best-of-N fan-out: the trial
// runner allocates a result and a depth slot per trial up front, keeps
// every completed trial's result and op log until it selects the
// winner, and spends a full routing trial of CPU on each, so an
// unchecked huge value is a memory/CPU DoS. 10k is far above any
// useful restart schedule (the paper uses 5).
const maxTrials = 10_000

// maxTraversals bounds the client-requested forward/backward passes
// per trial: every traversal re-routes the whole circuit, so the value
// multiplies a job's CPU time, and an unchecked one ties up a queue
// worker for as many passes as it asks. 101 is far above any useful
// schedule (the paper uses 3).
const maxTraversals = 101

// maxExtendedSetSize bounds the client-requested look-ahead |E|: every
// SWAP round's breadth-first walk runs until it holds that many
// two-qubit gates, so a huge value walks the rest of the circuit each
// round. 1024 is far above any useful window (the paper uses 20).
const maxExtendedSetSize = 1024

// server carries the shared engine, the async job queue, the parse
// memo, and a construct-once device cache (device construction runs
// Floyd–Warshall, worth amortizing).
type server struct {
	eng   *batch.Engine
	queue *jobqueue.Queue
	memo  *circuitMemo
	start time.Time

	// draining is closed when graceful shutdown begins. Long-poll
	// handlers select on it so parked ?wait= requests return their
	// current snapshot immediately instead of pinning http.Shutdown
	// for up to maxLongPoll and starving the queue drain of its
	// budget.
	draining chan struct{}

	// programsKept and programsReused count the results whose JSON
	// program was kept and the responses written from kept bytes (see
	// responseBody).
	programsKept, programsReused atomic.Int64

	mu      sync.Mutex
	devices map[string]*arch.Device
}

func newServer(eng *batch.Engine, qcfg jobqueue.Config) (*server, error) {
	s := &server{eng: eng, memo: newCircuitMemo(memoBudget), start: time.Now(), devices: make(map[string]*arch.Device), draining: make(chan struct{})}
	qcfg.Payload = s.webhookPayload
	if qcfg.Durable.Dir != "" && qcfg.Durable.Device == nil {
		// Replayed jobs resolve their device through the server's memo
		// so they share calibratable device instances with live
		// traffic (a POST /calibrations must reach replayed jobs too).
		qcfg.Durable.Device = s.device
	}
	q, err := jobqueue.Open(eng, qcfg)
	if err != nil {
		return nil, err
	}
	s.queue = q
	return s, nil
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJobByID)
	mux.HandleFunc("/calibrations/", s.handleCalibration)
	mux.HandleFunc("/devices", s.handleDevices)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// compileRequest is the JSON envelope form of a compile request.
type compileRequest struct {
	QASM    string         `json:"qasm"`
	Device  string         `json:"device"`
	Options optionsRequest `json:"options"`

	// Trials overrides the best-of-N routing fan-out (options.trials
	// also works; this wins when both are set).
	Trials int `json:"trials,omitempty"`
	// Route names the routing backend from the router registry:
	// sabre (default), greedy, astar, anneal.
	Route string `json:"route,omitempty"`
	// Passes names post-routing pipeline passes to run in order:
	// basis, peephole, schedule, verify.
	Passes []string `json:"passes,omitempty"`

	// Webhook, on the async /jobs endpoint, is an absolute http(s)
	// URL POSTed the completion payload (the jobResponse schema) when
	// the job reaches a terminal state. Ignored by /compile.
	Webhook string `json:"webhook,omitempty"`

	// Fleet lists candidate device specs; the daemon scores each
	// (predicted error under its current calibration snapshot, depth
	// estimate, queue load) and compiles on the winner. Mutually
	// exclusive with an explicit device.
	Fleet []string `json:"fleet,omitempty"`
}

// optionsRequest exposes the result-affecting SABRE knobs; zero fields
// keep the paper's defaults.
type optionsRequest struct {
	Heuristic         string  `json:"heuristic,omitempty"`
	ExtendedSetSize   int     `json:"extended_set_size,omitempty"`
	ExtendedSetWeight float64 `json:"extended_set_weight,omitempty"`
	DecayDelta        float64 `json:"decay_delta,omitempty"`
	Trials            int     `json:"trials,omitempty"`
	Traversals        int     `json:"traversals,omitempty"`
	Seed              int64   `json:"seed,omitempty"`
	UseBridge         bool    `json:"use_bridge,omitempty"`
}

// compileResponse reports the routed circuit and the paper's metrics.
// /compile writes it through appendCompileHead (envelope.go), which
// mirrors its field order and tags: a field added, moved or retagged
// here must change there too. TestResponseBytesOracle holds the two to
// encoding/json's bytes.
type compileResponse struct {
	Name          string `json:"name,omitempty"`
	Device        string `json:"device"`
	DeviceQubits  int    `json:"device_qubits"`
	OriginalGates int    `json:"original_gates"`
	OriginalDepth int    `json:"original_depth"`
	Swaps         int    `json:"swaps"`
	Bridges       int    `json:"bridges"`
	AddedGates    int    `json:"added_gates"`
	Gates         int    `json:"gates"`
	Depth         int    `json:"depth"`
	InitialLayout []int  `json:"initial_layout"`
	FinalLayout   []int  `json:"final_layout"`
	CacheHit      bool   `json:"cache_hit"`
	Key           string `json:"key"`
	ElapsedNS     int64  `json:"elapsed_ns"`

	// CalVersion is the device calibration snapshot the job compiled
	// under (0 = uncalibrated). A recalibration bumps it — and changes
	// the cache key, which is why the first compile after a
	// recalibration reports cache_hit:false.
	CalVersion uint64 `json:"cal_version"`

	// Fleet reports the scheduling decision when the request offered
	// candidate devices.
	Fleet *fleetJSON `json:"fleet,omitempty"`

	// Passes instruments the pipeline: one entry per executed pass
	// (route plus any requested post-routing passes) with wall-clock
	// time and gate/depth snapshots.
	Passes []passMetricJSON `json:"passes"`

	QASM string `json:"qasm"`
}

// passMetricJSON is the wire form of one pass metric.
type passMetricJSON struct {
	Pass      string `json:"pass"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Gates     int    `json:"gates"`
	Depth     int    `json:"depth"`
}

func passMetrics(ms []pipeline.PassMetric) []passMetricJSON {
	out := make([]passMetricJSON, len(ms))
	for i, m := range ms {
		out[i] = passMetricJSON{Pass: m.Pass, ElapsedNS: m.Elapsed.Nanoseconds(), Gates: m.Gates, Depth: m.Depth}
	}
	return out
}

// compileInput is the fully-validated form of a compile request —
// what both the synchronous /compile handler and the async /jobs
// handler hand to the engine. Because a single parser produces it, an
// async job can never be built from a request the synchronous path
// would have rejected, and both paths compile the identical batch.Job
// (same cache key, same derived seed → byte-identical output).
type compileInput struct {
	circ    *circuit.Circuit
	dev     *arch.Device
	opts    core.Options
	trials  int
	route   string
	passes  []string
	webhook string

	// devSpec is the spec string dev was resolved from — what a
	// durable job log persists (device display names do not re-parse).
	devSpec string

	// entry is the parse-memo entry keeping circ, nil when the memo
	// does not keep it.
	entry *memoEntry

	// fleetDevs holds the resolved fleet candidates (empty = no fleet
	// request); scheduleFleet turns them into a decision and rebinds
	// dev (and devSpec, via fleetSpecs) to the winner.
	fleetDevs  []*arch.Device
	fleetSpecs []string
	fleet      *fleet.Decision
}

// batchJob lifts the parsed input to the engine's job form, with the
// cache-key state kept for its circuit and device. Every daemon job
// routes under the device's live calibration snapshot
// (UseCalibration): a no-op until POST /calibrations/{device} installs
// one, after which compiles are noise-aware and the snapshot version
// joins the cache key.
func (s *server) batchJob(in *compileInput) batch.Job {
	return batch.Job{
		Circuit: in.circ, Device: in.dev, Options: in.opts,
		Trials: in.trials, Route: in.route, Passes: in.passes,
		UseCalibration: true, KeyState: s.keyState(in),
	}
}

// keyState returns the cache-key state of in's circuit on in's device
// that the circuit's memo entry keeps, making and keeping it on first
// use. A state holds its device, so one is kept only for a device the
// device cache keeps too; on any other device, or for a circuit the
// memo does not keep, the engine hashes the whole key.
func (s *server) keyState(in *compileInput) *batch.KeyState {
	ks := s.memo.keyState(in.entry, in.dev)
	if ks == nil && in.entry != nil && s.deviceKept(in.devSpec, in.dev) {
		ks = in.entry.keepKeyState(in.dev)
	}
	return ks
}

// scheduleFleet resolves a fleet request: score every candidate under
// current calibration snapshots and queue loads, rebind in.dev to the
// winner, and record the decision for the response. No-op without
// candidates. Failures (e.g. the circuit fits no candidate) are the
// client's fault: 400.
func (s *server) scheduleFleet(in *compileInput) error {
	if len(in.fleetDevs) == 0 {
		return nil
	}
	loads := s.queue.Loads()
	cands := make([]fleet.Candidate, len(in.fleetDevs))
	for i, d := range in.fleetDevs {
		cands[i] = fleet.Candidate{Device: d, Load: loads[d.Name()]}
	}
	dec, err := fleet.Schedule(in.circ, cands, fleet.Weights{})
	if err != nil {
		return err
	}
	in.dev = dec.Device
	in.fleet = dec
	// Rebind the persisted spec to the winner (candidates and specs
	// are parallel slices from parseCompile).
	for i, d := range in.fleetDevs {
		if d == dec.Device {
			in.devSpec = in.fleetSpecs[i]
			break
		}
	}
	return nil
}

// fleetJSON is the wire form of a fleet-scheduling decision.
type fleetJSON struct {
	// Device is the winning device's name.
	Device string `json:"device"`
	// CalVersion is the calibration snapshot the winner was scored
	// under (0 = uncalibrated).
	CalVersion uint64 `json:"cal_version"`
	// Scores holds every candidate's scoring row, in request order.
	Scores []fleet.Score `json:"scores"`
}

func fleetJSONOf(dec *fleet.Decision) *fleetJSON {
	if dec == nil {
		return nil
	}
	return &fleetJSON{Device: dec.Winner.Device, CalVersion: dec.Winner.CalVersion, Scores: dec.Scores}
}

// parseCompile reads and validates a compile request in either
// encoding (raw QASM + query params q, or the JSON envelope). Every
// failure is the client's fault and maps to 400.
func (s *server) parseCompile(w http.ResponseWriter, r *http.Request, q url.Values) (*compileInput, error) {
	body, err := readBody(w, r)
	if err != nil {
		return nil, err
	}

	var (
		src        string
		devName    string
		opts       core.Options
		trials     int
		routeName  string
		passes     []string
		webhook    string
		fleetSpecs []string
	)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req compileRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("bad JSON: %w", err)
		}
		src, devName = req.QASM, req.Device
		if devName == "" {
			devName = q.Get("device")
		}
		if opts, err = req.Options.toCore(); err != nil {
			return nil, err
		}
		if req.Trials < 0 || req.Options.Trials < 0 {
			return nil, fmt.Errorf("bad trials %d: must be non-negative (0 = default)", min(req.Trials, req.Options.Trials))
		}
		if req.Trials > maxTrials || req.Options.Trials > maxTrials {
			return nil, fmt.Errorf("bad trials %d: at most %d", max(req.Trials, req.Options.Trials), maxTrials)
		}
		trials, routeName, passes, webhook = req.Trials, req.Route, req.Passes, req.Webhook
		fleetSpecs = req.Fleet
	} else {
		src = bytesString(body)
		devName = q.Get("device")
		if opts, err = queryOptions(q); err != nil {
			return nil, err
		}
		routeName = q.Get("route")
		if v := q.Get("passes"); v != "" {
			passes = strings.Split(v, ",")
		}
		webhook = q.Get("webhook")
		if v := q.Get("fleet"); v != "" {
			fleetSpecs = strings.Split(v, ",")
		}
	}
	// Invalid requests are the client's fault: reject every bad
	// trials/route/passes/webhook value with a 400 here, before the
	// job can reach the engine (whose failures map to 422).
	if err := pipeline.PostRouting(passes); err != nil {
		return nil, err
	}
	if _, err := route.Canonical(routeName); err != nil {
		return nil, err
	}
	if err := validWebhook(webhook); err != nil {
		return nil, err
	}
	// A fleet request delegates the device choice to the scheduler; an
	// explicit device alongside it is contradictory.
	var fleetDevs []*arch.Device
	if len(fleetSpecs) > 0 {
		if devName != "" {
			return nil, fmt.Errorf("device %q and fleet are mutually exclusive: the scheduler picks the device", devName)
		}
		for _, spec := range fleetSpecs {
			d, err := s.device(spec)
			if err != nil {
				return nil, fmt.Errorf("fleet: %w", err)
			}
			fleetDevs = append(fleetDevs, d)
		}
		devName = fleetSpecs[0] // placeholder until scheduleFleet rebinds
	}
	if devName == "" {
		devName = "tokyo"
	}

	dev, err := s.device(devName)
	if err != nil {
		return nil, err
	}
	circ, entry, err := s.memo.parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse QASM: %w", err)
	}
	return &compileInput{
		circ: circ, dev: dev, opts: opts,
		trials: trials, route: routeName, passes: passes, webhook: webhook,
		devSpec: devName, entry: entry, fleetDevs: fleetDevs, fleetSpecs: fleetSpecs,
	}, nil
}

// exactBodyBytes bounds the buffer readBody allocates for a declared
// length before any byte of the body arrives, so a client that
// declares a large body and stalls holds no more than this. 1 MiB
// covers every Table II source.
const exactBodyBytes = 1 << 20

// readBody reads a request body of at most maxBodyBytes. A body that
// declares a length of at most exactBodyBytes is read into one buffer
// of exactly that size; any other goes through the capped io.ReadAll,
// which grows its buffer only as bytes arrive and refuses a body over
// the cap. w may be nil.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n <= exactBodyBytes {
		body := make([]byte, n)
		if _, err := io.ReadFull(r.Body, body); err != nil {
			return nil, fmt.Errorf("read body: %w", err)
		}
		return body, nil
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	return body, nil
}

// bytesString views a body readBody returned as a string without
// copying it. Nothing writes to a body once read, and a parsed circuit
// keeps no substring of its source, so a memo entry never pins one.
func bytesString(body []byte) string {
	return unsafe.String(unsafe.SliceData(body), len(body))
}

// validWebhook accepts empty or an absolute http(s) URL.
func validWebhook(raw string) error {
	if raw == "" {
		return nil
	}
	u, err := url.Parse(raw)
	if err != nil {
		return fmt.Errorf("bad webhook %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("bad webhook %q: need an absolute http(s) URL", raw)
	}
	return nil
}

// buildCompileResponse renders an engine result as /compile returns
// it, less the routed program: compileBody and responseBody write
// res's program into the empty "qasm" field. The async poll/webhook
// paths reuse it, so their payloads are byte-identical to the
// synchronous endpoint's, and the job list sends it as is, a summary
// without the program. The gate and depth figures are res.Report,
// measured once per compilation, never per response.
func buildCompileResponse(in *compileInput, res *batch.Result) compileResponse {
	rep := &res.Report
	return compileResponse{
		Name:          in.circ.Name(),
		Device:        in.dev.Name(),
		DeviceQubits:  in.dev.NumQubits(),
		OriginalGates: rep.RefGates,
		OriginalDepth: rep.RefDepth,
		Swaps:         res.SwapCount,
		Bridges:       res.BridgeCount,
		AddedGates:    res.AddedGates,
		Gates:         rep.Gates,
		Depth:         rep.Depth,
		InitialLayout: res.InitialLayout,
		FinalLayout:   res.FinalLayout,
		CacheHit:      res.CacheHit,
		Key:           hex.EncodeToString(res.Key[:8]),
		ElapsedNS:     res.Elapsed.Nanoseconds(),
		CalVersion:    res.CalVersion,
		Fleet:         fleetJSONOf(in.fleet),
		Passes:        passMetrics(res.PassMetrics),
	}
}

func (s *server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	if stream, err := streaming(q); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	} else if stream {
		s.handleCompileStream(w, r, q)
		return
	}
	in, err := s.parseCompile(w, r, q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.scheduleFleet(in); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// The request context rides along: a disconnected client cancels
	// the job, and an in-flight compile stops within one SWAP round
	// instead of burning a worker on a dead request.
	res := <-s.eng.SubmitContext(r.Context(), s.batchJob(in))
	if res.Err != nil {
		if r.Context().Err() != nil {
			return // client is gone; nothing to write
		}
		http.Error(w, res.Err.Error(), http.StatusUnprocessableEntity)
		return
	}
	cr := buildCompileResponse(in, &res)
	writeBody(w, s.compileBody(&cr, &res))
}

func (s *server) handleDevices(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"named":         []string{"tokyo", "qx5", "falcon27"},
		"parameterized": []string{"line:<n>", "ring:<n>", "star:<n>", "full:<n>", "grid:<r>x<c>", "sycamore:<r>x<c>", "aspen:<octagons>"},
		"routers":       route.Names(),
	})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	writeJSON(w, map[string]any{
		"jobs":     st.Jobs,
		"compiles": st.Compiles,
		"hits":     st.Hits,
		"shared":   st.Shared,
		"errors":   st.Errors,
		"cached":   st.Cached,
		"workers":  s.eng.Workers(),
		"uptime_s": int64(time.Since(s.start).Seconds()),
		"queue":    s.queue.Stats(),
		"memo":     s.memo.snapshot(),
		"programs": map[string]int64{"kept": s.programsKept.Load(), "reused": s.programsReused.Load()},
	})
}

// writeJSON writes v as JSON indented by two spaces.
func writeJSON(w http.ResponseWriter, v any) {
	writeBody(w, indentJSON(v))
}

// writeBody writes a JSON response body in one write.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// indentJSON encodes v with encoding/json and a two-space indent.
func indentJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return buf.Bytes()
}

// emptyQASM is an empty "qasm" field as the indenting encoder writes
// it. A compile result is the only object with a "qasm" key, and a
// quote inside a JSON string is always escaped, so in an envelope that
// carries one result the last match is its field.
var emptyQASM = []byte(`"qasm": ""`)

// responseBody encodes a job view v, whose compile result res (nil
// for none) leaves its "qasm" field empty, in one pass over the
// program: the envelope goes through indentJSON, and appendProgram
// writes res's program between the envelope's head and tail.
func (s *server) responseBody(v any, res *batch.Result) []byte {
	env := indentJSON(v)
	if res == nil {
		return env
	}
	i := bytes.LastIndex(env, emptyQASM)
	if i < 0 {
		panic("sabred: a response with a program has no empty qasm field")
	}
	i += len(emptyQASM) - len(`""`)
	head, tail := env[:i], env[i+len(`""`):]
	body := slices.Clip(head) // appendProgram's first append copies it: tail stays intact
	if prog := res.KeptProgram(); prog != nil {
		body = append(make([]byte, 0, len(head)+len(prog)+len(tail)), head...)
	}
	return append(s.appendProgram(body, res), tail...)
}

// appendProgram appends res's routed program to dst as a JSON string.
// It is escaped by qasm.AppendJSON straight from res.Final, so it is
// never formatted to a string, and encoding/json neither escapes nor
// indents it. A result written before is not escaped again: the
// second write keeps the escaped program on the result's shared
// outcome (batch.Result.WroteProgram), and every later write copies
// the kept bytes.
func (s *server) appendProgram(dst []byte, res *batch.Result) []byte {
	if prog := res.KeptProgram(); prog != nil {
		s.programsReused.Add(1)
		return append(dst, prog...)
	}
	start := len(dst)
	dst = qasm.AppendJSON(dst, res.Final)
	if res.WroteProgram(dst[start:]) {
		s.programsKept.Add(1)
	}
	return dst
}

// maxCachedDevices bounds the device memo: specs are client-chosen
// and each device carries an O(n²) distance matrix, so an unbounded
// map would let a client exhaust memory by enumerating specs. Past
// the cap, devices are built per request and not retained.
const maxCachedDevices = 64

// device resolves (and memoizes) a device spec. Construction happens
// outside the lock — building a large device runs Floyd–Warshall and
// must not stall every other request's lookup; the worst case is two
// concurrent requests building the same device once each.
func (s *server) device(spec string) (*arch.Device, error) {
	key := deviceKey(spec)
	s.mu.Lock()
	d, ok := s.devices[key]
	s.mu.Unlock()
	if ok {
		return d, nil
	}
	d, err := buildDevice(key)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if prev, ok := s.devices[key]; ok {
		d = prev // keep the first build so pointers stay stable
	} else if len(s.devices) < maxCachedDevices {
		s.devices[key] = d
	}
	s.mu.Unlock()
	return d, nil
}

// deviceKept reports whether d is the device the device cache keeps
// for spec, and so lives as long as the daemon.
func (s *server) deviceKept(spec string, d *arch.Device) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.devices[deviceKey(spec)] == d
}

// deviceKey is the device cache's key for a spec.
func deviceKey(spec string) string { return strings.ToLower(strings.TrimSpace(spec)) }

// buildDevice constructs a device from its spec string (the shared
// vocabulary lives in arch.FromSpec; the daemon only adds the /devices
// hint to errors).
func buildDevice(spec string) (*arch.Device, error) {
	d, err := arch.FromSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("%v (see /devices)", err)
	}
	return d, nil
}

// toCore converts the JSON options to core.Options, starting from the
// paper's defaults.
func (o optionsRequest) toCore() (core.Options, error) {
	opts := core.DefaultOptions()
	if o.Heuristic != "" {
		h, err := parseHeuristic(o.Heuristic)
		if err != nil {
			return opts, err
		}
		opts.Heuristic = h
	}
	if o.ExtendedSetSize > maxExtendedSetSize {
		return opts, fmt.Errorf("bad extended_set_size %d: at most %d", o.ExtendedSetSize, maxExtendedSetSize)
	}
	if o.ExtendedSetSize > 0 {
		opts.ExtendedSetSize = o.ExtendedSetSize
	}
	if o.ExtendedSetWeight > 0 {
		opts.ExtendedSetWeight = o.ExtendedSetWeight
	}
	if o.DecayDelta > 0 {
		opts.DecayDelta = o.DecayDelta
	}
	if o.Trials > 0 {
		opts.Trials = o.Trials
	}
	if o.Traversals > maxTraversals {
		return opts, fmt.Errorf("bad traversals %d: at most %d", o.Traversals, maxTraversals)
	}
	if o.Traversals > 0 {
		opts.Traversals = o.Traversals
	}
	opts.Seed = o.Seed
	opts.UseBridge = o.UseBridge
	return opts, nil
}

// queryOptions builds options from ?seed=&trials=&bridge=&heuristic=.
func queryOptions(q url.Values) (core.Options, error) {
	opts := core.DefaultOptions()
	opts.Seed = 0
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("bad seed %q", v)
		}
		opts.Seed = n
	}
	if v := q.Get("trials"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxTrials {
			return opts, fmt.Errorf("bad trials %q (1..%d)", v, maxTrials)
		}
		opts.Trials = n
	}
	if v := q.Get("bridge"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return opts, fmt.Errorf("bad bridge %q", v)
		}
		opts.UseBridge = b
	}
	if v := q.Get("heuristic"); v != "" {
		h, err := parseHeuristic(v)
		if err != nil {
			return opts, err
		}
		opts.Heuristic = h
	}
	return opts, nil
}

func parseHeuristic(name string) (core.Heuristic, error) {
	switch strings.ToLower(name) {
	case "basic":
		return core.HeuristicBasic, nil
	case "lookahead":
		return core.HeuristicLookahead, nil
	case "decay":
		return core.HeuristicDecay, nil
	}
	return 0, fmt.Errorf("unknown heuristic %q (basic|lookahead|decay)", name)
}
