package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/jobqueue"
	"repro/internal/workloads"
)

// runAsync exercises the async job subsystem end to end over the
// workload suite: every benchmark is submitted as an async job with a
// webhook, progress is collected by long-polling, one extra job is
// cancelled mid-flight, and the queue is drained gracefully. Any
// failed job, missed webhook, or surviving cancelled job fails the
// run (exit 1) — this is the exercise mode `make sabred-smoke`
// complements over real HTTP.
func runAsync(benches []workloads.Benchmark, dev *arch.Device, opts core.Options, routeName string, passes []string, workers int, seed int64) {
	eng := batch.NewEngine(batch.Config{Workers: workers, BaseSeed: seed})
	defer eng.Close()

	// A local webhook sink counts deliveries; the queue must hit it
	// once per terminal job.
	var hooks atomic.Int64
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var payload map[string]any
		if err := json.NewDecoder(r.Body).Decode(&payload); err != nil {
			fatal(fmt.Errorf("webhook payload: %w", err))
		}
		hooks.Add(1)
	}))
	defer sink.Close()

	q := jobqueue.New(eng, jobqueue.Config{Workers: workers})
	fmt.Printf("== async job queue: %d jobs, %d workers, device %s, webhook %s ==\n",
		len(benches), workers, dev.Name(), sink.URL)

	start := time.Now()
	ids := make([]string, len(benches))
	for i, b := range benches {
		snap, err := q.Submit(jobqueue.Request{
			Job:     batch.Job{Circuit: b.Build(), Device: dev, Options: opts, Route: routeName, Passes: passes, Tag: b.Name},
			Webhook: sink.URL,
		})
		if err != nil {
			fatal(fmt.Errorf("submit %s: %w", b.Name, err))
		}
		ids[i] = snap.ID
	}

	fmt.Printf("%-16s %-22s %6s %6s %7s %7s\n", "benchmark", "job", "g_ori", "g_add", "depth", "ms")
	for i, id := range ids {
		snap, err := q.Wait(context.Background(), id, 10*time.Minute)
		if err != nil {
			fatal(err)
		}
		if snap.State != jobqueue.StateDone {
			fatal(fmt.Errorf("%s: job %s finished as %s (%s)", benches[i].Name, id, snap.State, snap.Err))
		}
		rep := &snap.Result.Report
		fmt.Printf("%-16s %-22s %6d %6d %7d %7.1f\n",
			benches[i].Name, id, rep.RefGates, snap.Result.AddedGates, rep.Depth,
			float64(snap.Result.Elapsed.Nanoseconds())/1e6)
	}
	elapsed := time.Since(start)

	// Cancel exercise: resubmit the largest workload and kill it. On a
	// fast machine it may legitimately finish first; what must never
	// happen is a hang or a non-terminal state.
	big := benches[len(benches)-1]
	snap, err := q.Submit(jobqueue.Request{Job: batch.Job{Circuit: big.Build(), Device: dev, Options: opts, Trials: 64, Tag: big.Name + "/cancel"}})
	if err != nil {
		fatal(err)
	}
	if _, err := q.Cancel(snap.ID); err != nil {
		fatal(err)
	}
	snap, err = q.Wait(context.Background(), snap.ID, 10*time.Minute)
	if err != nil {
		fatal(err)
	}
	if !snap.State.Terminal() {
		fatal(fmt.Errorf("cancelled job %s stuck in %s", snap.ID, snap.State))
	}
	fmt.Printf("cancel exercise: job %s -> %s\n", snap.ID, snap.State)

	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := q.Close(drainCtx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	if got, want := hooks.Load(), int64(len(benches)); got != want {
		fatal(fmt.Errorf("webhook sink hit %d times, want %d", got, want))
	}
	st := q.Stats()
	fmt.Printf("queue: %d submitted, %d done, %d cancelled, %d webhooks delivered; %d jobs in %v\n",
		st.Submitted, st.Done, st.Cancelled, st.WebhooksDelivered, len(benches), elapsed.Round(time.Millisecond))
}
