package jobqueue

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/joblog"
	"repro/internal/qasm"
	"repro/internal/workloads"
)

// newDurableQueue opens a queue with a job log in dir and tears it
// down with the engine.
func newDurableQueue(t *testing.T, cfg Config) (*Queue, *batch.Engine) {
	t.Helper()
	eng := batch.NewEngine(batch.Config{Workers: 2})
	t.Cleanup(eng.Close)
	q, err := Open(eng, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = q.Close(ctx)
	})
	return q, eng
}

func durableCfg(dir string) DurabilityConfig {
	// FsyncNever keeps the unit tests off the fsync path; the joblog
	// package and the crash smoke cover the sync policies.
	return DurabilityConfig{Dir: dir, Fsync: joblog.FsyncNever}
}

func durableReq(tag string) Request {
	return Request{Job: fastJob(tag), DeviceSpec: "tokyo"}
}

func TestPersistRoundTrip(t *testing.T) {
	noise := &arch.NoiseModel{
		Default:   0.01,
		EdgeError: map[arch.Edge]float64{arch.NewEdge(0, 1): 0.05, arch.NewEdge(1, 6): 0.002},
	}
	req := Request{
		Job: batch.Job{
			Circuit: workloads.GHZ(5),
			Device:  arch.IBMQ20Tokyo(),
			Options: core.Options{
				Heuristic: core.HeuristicLookahead, Seed: 7, Trials: 2,
				UseBridge: true, Noise: noise, MaxEdgeError: 0.4,
				ExtendedSetSize: 10, ExtendedSetWeight: 0.3,
			},
			Trials:         3,
			Route:          "greedy",
			Passes:         []string{"peephole", "verify"},
			Tag:            "round-trip",
			UseCalibration: true,
		},
		Webhook:    "http://example.invalid/hook",
		DeviceSpec: "tokyo",
	}
	payload, err := encodeRequest(req)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := decodeRequest(payload, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got, want := qasm.Format(dec.Job.Circuit), qasm.Format(req.Job.Circuit); got != want {
		t.Fatalf("circuit did not round-trip:\n got %q\nwant %q", got, want)
	}
	if dec.Job.Circuit.Name() != req.Job.Circuit.Name() {
		t.Fatalf("name %q, want %q", dec.Job.Circuit.Name(), req.Job.Circuit.Name())
	}
	if dec.Job.Device.NumQubits() != 20 {
		t.Fatalf("device has %d qubits, want tokyo's 20", dec.Job.Device.NumQubits())
	}
	if dec.DeviceSpec != "tokyo" || dec.Webhook != req.Webhook {
		t.Fatalf("spec/webhook: %q %q", dec.DeviceSpec, dec.Webhook)
	}
	if dec.Job.Trials != 3 || dec.Job.Route != "greedy" || dec.Job.Tag != "round-trip" ||
		!dec.Job.UseCalibration || len(dec.Job.Passes) != 2 {
		t.Fatalf("job fields did not round-trip: %+v", dec.Job)
	}
	o := dec.Job.Options
	if o.Heuristic != core.HeuristicLookahead || o.Seed != 7 || o.Trials != 2 ||
		!o.UseBridge || o.MaxEdgeError != 0.4 || o.ExtendedSetSize != 10 || o.ExtendedSetWeight != 0.3 {
		t.Fatalf("options did not round-trip: %+v", o)
	}
	if o.Noise == nil || o.Noise.Default != 0.01 ||
		o.Noise.EdgeError[arch.NewEdge(0, 1)] != 0.05 ||
		o.Noise.EdgeError[arch.NewEdge(1, 6)] != 0.002 {
		t.Fatalf("noise did not round-trip: %+v", o.Noise)
	}

	if _, err := encodeRequest(Request{Job: fastJob("nospec")}); err == nil ||
		!strings.Contains(err.Error(), "DeviceSpec") {
		t.Fatalf("encode without DeviceSpec = %v, want DeviceSpec error", err)
	}
}

// synthCrashLog writes a job log by hand — the residue of a process
// that was SIGKILLed with work in flight.
func synthCrashLog(t *testing.T, dir string, recs []joblog.Record) {
	t.Helper()
	l, _, err := joblog.Open(dir, joblog.Config{Fsync: joblog.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustPayload(t *testing.T, req Request) []byte {
	t.Helper()
	p, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReplayOnBoot(t *testing.T) {
	dir := t.TempDir()
	synthCrashLog(t, dir, []joblog.Record{
		{Kind: joblog.KindAccepted, Seq: 1, Time: 100, ID: "job-crash-1", Payload: mustPayload(t, durableReq("one"))},
		{Kind: joblog.KindAccepted, Seq: 2, Time: 200, ID: "job-crash-2", Payload: mustPayload(t, durableReq("two"))},
		{Kind: joblog.KindStarted, Seq: 1, Time: 300, ID: "job-crash-1"},
		{Kind: joblog.KindAccepted, Seq: 3, Time: 400, ID: "job-crash-3", Payload: mustPayload(t, durableReq("three"))},
		// Job 4 finished before the crash: replay must leave it dead.
		{Kind: joblog.KindAccepted, Seq: 4, Time: 500, ID: "job-crash-4", Payload: mustPayload(t, durableReq("four"))},
		{Kind: joblog.KindStarted, Seq: 4, Time: 600, ID: "job-crash-4"},
		{Kind: joblog.KindFinished, Seq: 4, Time: 700, ID: "job-crash-4", State: "done"},
	})

	q, eng := newDurableQueue(t, Config{Workers: 1, Durable: durableCfg(dir)})
	st := q.Stats()
	if st.Recovery == nil {
		t.Fatal("durable queue has no recovery stats")
	}
	if st.Recovery.Replayed != 3 || st.Recovery.Queued != 2 || st.Recovery.Running != 1 || st.Recovery.Dropped != 0 {
		t.Fatalf("recovery = %+v", st.Recovery)
	}
	if _, err := q.Get("job-crash-4"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("terminal job resurrected: %v", err)
	}
	// All three replayed jobs — original IDs intact — run to done.
	for _, id := range []string{"job-crash-1", "job-crash-2", "job-crash-3"} {
		snap := waitState(t, q, id, StateDone)
		if snap.Result == nil {
			t.Fatalf("%s: done without result", id)
		}
	}
	// Replayed compilation is byte-identical to a fresh submission of
	// the same job (determinism is what makes re-running safe).
	fresh := <-eng.SubmitContext(context.Background(), durableReq("one").Job)
	if fresh.Err != nil {
		t.Fatal(fresh.Err)
	}
	got, _ := q.Get("job-crash-1")
	if qasm.Format(got.Result.Final) != qasm.Format(fresh.Final) {
		t.Fatal("replayed result differs from fresh compilation")
	}
	// New submissions continue the persisted sequence: no ID collision.
	snap, err := q.Submit(durableReq("post-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(snap.ID, "job-5-") {
		t.Fatalf("post-recovery ID %q, want seq 5 (log ended at 4)", snap.ID)
	}
	waitState(t, q, snap.ID, StateDone)
}

// TestReplayLegacyScoringRecords: records written before the delta
// engine and the ExhaustiveScoring flag were retired — "scoring": 1
// and "exhaustive_scoring": true — still decode, and replay to the
// bitset engine's result.
func TestReplayLegacyScoringRecords(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Seed = 5
	job := batch.Job{Circuit: workloads.RandomCircuit("legacy", 12, 300, 0.6, 3), Device: arch.IBMQ20Tokyo(), Options: opts, Tag: "legacy"}
	ref := batch.NewEngine(batch.Config{Workers: 1})
	defer ref.Close()
	want := <-ref.SubmitContext(context.Background(), job)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	legacy := func(option string) []byte {
		p := string(mustPayload(t, Request{Job: job, DeviceSpec: "tokyo"}))
		if !strings.Contains(p, `"options":{"`) {
			t.Fatalf("payload %s has no options object to extend", p)
		}
		return []byte(strings.Replace(p, `"options":{`, `"options":{`+option+`,`, 1))
	}
	dir := t.TempDir()
	synthCrashLog(t, dir, []joblog.Record{
		{Kind: joblog.KindAccepted, Seq: 1, Time: 100, ID: "job-delta", Payload: legacy(`"scoring":1`)},
		{Kind: joblog.KindAccepted, Seq: 2, Time: 200, ID: "job-exhaustive", Payload: legacy(`"exhaustive_scoring":true`)},
	})
	q, _ := newDurableQueue(t, Config{Workers: 1, Durable: durableCfg(dir)})
	if st := q.Stats(); st.Recovery.Replayed != 2 || st.Recovery.Dropped != 0 {
		t.Fatalf("recovery = %+v", st.Recovery)
	}
	for _, id := range []string{"job-delta", "job-exhaustive"} {
		snap := waitState(t, q, id, StateDone)
		if got := snap.Result; qasm.Format(got.Final) != qasm.Format(want.Final) || got.AddedGates != want.AddedGates {
			t.Fatalf("%s replayed to %d added gates, bitset compiles %d (or the circuits differ)", id, got.AddedGates, want.AddedGates)
		}
	}
}

func TestCleanRestartReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	eng := batch.NewEngine(batch.Config{Workers: 2})
	defer eng.Close()
	q, err := Open(eng, Config{Workers: 1, Durable: durableCfg(dir)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"a", "b"} {
		snap, err := q.Submit(durableReq(tag))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, q, snap.ID, StateDone)
	}
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	q2, _ := newDurableQueue(t, Config{Workers: 1, Durable: durableCfg(dir)})
	st := q2.Stats()
	if st.Recovery.Replayed != 0 || st.Recovery.Dropped != 0 {
		t.Fatalf("clean restart recovered %+v", st.Recovery)
	}
	if st.Log == nil || st.Log.Records != 6 {
		t.Fatalf("log stats = %+v, want 6 records (2 jobs x 3 transitions)", st.Log)
	}
}

func TestReplayDropsUndecodablePayload(t *testing.T) {
	dir := t.TempDir()
	synthCrashLog(t, dir, []joblog.Record{
		{Kind: joblog.KindAccepted, Seq: 1, Time: 100, ID: "job-bad", Payload: []byte("corrupted beyond json")},
		{Kind: joblog.KindAccepted, Seq: 2, Time: 200, ID: "job-good", Payload: mustPayload(t, durableReq("good"))},
	})
	eng := batch.NewEngine(batch.Config{Workers: 2})
	defer eng.Close()
	q, err := Open(eng, Config{Workers: 1, Durable: durableCfg(dir)})
	if err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.Recovery.Replayed != 2 || st.Recovery.Dropped != 1 || st.Recovery.Queued != 1 {
		t.Fatalf("recovery = %+v", st.Recovery)
	}
	// The dropped job is retained as failed so pollers learn its fate.
	snap, err := q.Get("job-bad")
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateFailed || !strings.Contains(snap.Err, "replay") {
		t.Fatalf("dropped job = %s (%q)", snap.State, snap.Err)
	}
	waitState(t, q, "job-good", StateDone)
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The drop was re-terminated in the log: the next boot is clean.
	q2, _ := newDurableQueue(t, Config{Workers: 1, Durable: durableCfg(dir)})
	if st := q2.Stats(); st.Recovery.Replayed != 0 || st.Recovery.Dropped != 0 {
		t.Fatalf("second boot recovered %+v", st.Recovery)
	}
}

func TestDurableSubmitRequiresDeviceSpec(t *testing.T) {
	q, _ := newDurableQueue(t, Config{Workers: 1, Durable: durableCfg(t.TempDir())})
	if _, err := q.Submit(Request{Job: fastJob("nospec")}); err == nil ||
		!strings.Contains(err.Error(), "DeviceSpec") {
		t.Fatalf("Submit without spec = %v", err)
	}
	if st := q.Stats(); st.Submitted != 0 || st.Held != 0 {
		t.Fatalf("failed submit leaked state: %+v", st)
	}
}

func TestDurableSubmitAcceptAppendFailure(t *testing.T) {
	inj := faults.NewInjector().FailAt(faults.OpWrite, 1)
	cfg := durableCfg(t.TempDir())
	cfg.Wrap = func(f joblog.File) joblog.File { return faults.NewFile(f, inj) }
	q, _ := newDurableQueue(t, Config{Workers: 1, Durable: cfg})

	// The first durable write is this submit's accepted record; its
	// failure must fail the submit — an unlogged job would silently
	// vanish on replay.
	if _, err := q.Submit(durableReq("doomed")); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Submit under failing append = %v, want ErrInjected", err)
	}
	st := q.Stats()
	if st.Submitted != 0 || st.Held != 0 || st.LogErrors != 1 {
		t.Fatalf("after failed accept: %+v", st)
	}
	// The queue is not poisoned: the next submit lands and completes.
	snap, err := q.Submit(durableReq("survivor"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, snap.ID, StateDone)
}

func TestCompactionEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.CompactMinRecords = 6
	cfg.CompactFactor = 2
	eng := batch.NewEngine(batch.Config{Workers: 2})
	defer eng.Close()
	q, err := Open(eng, Config{Workers: 1, Durable: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		snap, err := q.Submit(durableReq("compact"))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, q, snap.ID, StateDone)
	}
	st := q.Stats()
	if st.Log == nil || st.Log.Compactions < 1 {
		t.Fatalf("no compaction after 4 jobs x 3 records (min 6, factor 2): %+v", st.Log)
	}
	// Every held job is terminal, so the live set is empty and the
	// compacted log is (near-)empty — far below the 12 appends made.
	if st.Log.Records >= 12 {
		t.Fatalf("log still holds %d records", st.Log.Records)
	}
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	q2, _ := newDurableQueue(t, Config{Workers: 1, Durable: durableCfg(dir)})
	if st := q2.Stats(); st.Recovery.Replayed != 0 {
		t.Fatalf("compacted log replayed %+v", st.Recovery)
	}
}

func TestPanicIsolation(t *testing.T) {
	faults.RegisterPanicRouter()
	q, _ := newTestQueue(t, Config{Workers: 1})
	snap, err := q.Submit(Request{Job: batch.Job{
		Circuit: workloads.GHZ(6), Device: arch.IBMQ20Tokyo(), Route: "panic",
	}})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, q, snap.ID, StateFailed)
	if !strings.Contains(got.Err, "panic") {
		t.Fatalf("panicking job error %q does not mention the panic", got.Err)
	}
	if !strings.Contains(got.Err, "goroutine") {
		t.Fatalf("panicking job error carries no stack:\n%s", got.Err)
	}
	// One poisoned job must not take the worker (or the process) down.
	after, err := q.Submit(Request{Job: fastJob("after-panic")})
	if err != nil {
		t.Fatal(err)
	}
	if s := waitState(t, q, after.ID, StateDone); s.Result == nil {
		t.Fatal("queue did not keep serving after a panicking job")
	}
}

func TestWebhookPermanent4xxNotRetried(t *testing.T) {
	ws := faults.NewWebhookServer(faults.StepNotFound)
	defer ws.Close()
	q, _ := newTestQueue(t, Config{
		Workers: 1,
		Webhook: WebhookConfig{MaxAttempts: 5, Backoff: time.Millisecond},
	})
	snap, err := q.Submit(Request{Job: fastJob("perm"), Webhook: ws.URL()})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, snap.ID, StateDone)
	got := waitWebhook(t, q, snap.ID, 1)
	if got.Webhook.Delivered || got.Webhook.Attempts != 1 ||
		!strings.Contains(got.Webhook.LastError, "permanent") {
		t.Fatalf("webhook status = %+v", got.Webhook)
	}
	deadline := time.Now().Add(10 * time.Second)
	for q.Stats().WebhooksFailed != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v", q.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if ws.Attempts() != 1 {
		t.Fatalf("404 was retried: %d attempts", ws.Attempts())
	}
}

func TestWebhookRetryable4xx(t *testing.T) {
	// 408 and 429 are the 4xx exceptions: the condition is transient.
	ws := faults.NewWebhookServer(
		faults.WebhookStep{Status: 408}, faults.StepTooMany, faults.StepOK)
	defer ws.Close()
	q, _ := newTestQueue(t, Config{
		Workers: 1,
		Webhook: WebhookConfig{MaxAttempts: 5, Backoff: time.Millisecond},
	})
	snap, err := q.Submit(Request{Job: fastJob("transient"), Webhook: ws.URL()})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, snap.ID, StateDone)
	got := waitWebhook(t, q, snap.ID, 3)
	if !got.Webhook.Delivered || got.Webhook.Attempts != 3 {
		t.Fatalf("webhook status = %+v", got.Webhook)
	}
}

func TestRetryDelayDeterministicAndBounded(t *testing.T) {
	backoff := 400 * time.Millisecond
	d1 := retryDelay(backoff, "job-7-abc", 2)
	d2 := retryDelay(backoff, "job-7-abc", 2)
	if d1 != d2 {
		t.Fatalf("retryDelay not deterministic: %v vs %v", d1, d2)
	}
	for attempt := 2; attempt <= 6; attempt++ {
		for _, id := range []string{"job-1-x", "job-2-y", "job-3-z"} {
			d := retryDelay(backoff, id, attempt)
			if d < backoff/2 || d >= backoff {
				t.Fatalf("retryDelay(%v, %q, %d) = %v outside [%v, %v)",
					backoff, id, attempt, d, backoff/2, backoff)
			}
		}
	}
	for status, want := range map[int]bool{
		0: false, 200: false, 400: true, 404: true, 410: true,
		408: false, 429: false, 500: false, 503: false,
	} {
		if got := permanentStatus(status); got != want {
			t.Fatalf("permanentStatus(%d) = %v, want %v", status, got, want)
		}
	}
}
