package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/jobqueue"
)

// maxLongPoll caps GET /jobs/{id}?wait= so a stuck client cannot pin
// a handler goroutine forever.
const maxLongPoll = time.Minute

// jobResponse is the wire form of one async job — returned by every
// /jobs endpoint and POSTed verbatim to the job's webhook URL, so
// pollers and webhook consumers read one schema:
//
//	{
//	  "id":       "job-12-a1b2c3d4e5f6",
//	  "state":    "queued|running|done|failed|cancelled",
//	  "created":  "2026-07-26T12:00:00Z",
//	  "started":  "...",              // once running
//	  "finished": "...",              // once terminal
//	  "error":    "...",              // failed/cancelled detail
//	  "webhook":  {"url": "...", "attempts": 1, "delivered": true},
//	  "result":   { ...compileResponse... }  // done only: identical
//	}                                        // to POST /compile output
type jobResponse struct {
	ID       string                  `json:"id"`
	State    jobqueue.State          `json:"state"`
	Tag      string                  `json:"tag,omitempty"`
	Created  time.Time               `json:"created"`
	Started  *time.Time              `json:"started,omitempty"`
	Finished *time.Time              `json:"finished,omitempty"`
	Error    string                  `json:"error,omitempty"`
	Webhook  *jobqueue.WebhookStatus `json:"webhook,omitempty"`
	Fleet    *fleetJSON              `json:"fleet,omitempty"`
	Result   *compileResponse        `json:"result,omitempty"`
}

// jobResponseOf renders a queue snapshot. A done job embeds the
// compile response built by the exact code path /compile uses, so
// the async output is byte-identical to the synchronous one. Its
// "qasm" is empty: writeJob fills it from jobResult for the poll and
// webhook payloads, and the list view sends the summary as is
// (serializing every retained circuit per dashboard poll would be pure
// waste).
func jobResponseOf(snap jobqueue.Snapshot) jobResponse {
	out := jobResponse{
		ID:      snap.ID,
		State:   snap.State,
		Tag:     snap.Request.Job.Tag,
		Created: snap.Created,
		Error:   snap.Err,
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		out.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		out.Finished = &t
	}
	if snap.Webhook.URL != "" {
		wh := snap.Webhook
		out.Webhook = &wh
	}
	out.Fleet = fleetJSONOf(snap.Request.Fleet)
	if snap.State == jobqueue.StateDone && snap.Result != nil {
		in := &compileInput{circ: snap.Request.Job.Circuit, dev: snap.Request.Job.Device, fleet: snap.Request.Fleet}
		cr := buildCompileResponse(in, snap.Result)
		out.Result = &cr
	}
	return out
}

// jobResult returns a done job's compile result, nil otherwise.
func jobResult(snap jobqueue.Snapshot) *batch.Result {
	if snap.State == jobqueue.StateDone {
		return snap.Result
	}
	return nil
}

// writeJob writes a job's full view: jobResponseOf with the program.
func (s *server) writeJob(w http.ResponseWriter, snap jobqueue.Snapshot) {
	writeBody(w, s.responseBody(jobResponseOf(snap), jobResult(snap)))
}

// webhookPayload is the webhook body: the full view a poller reads, so
// both delivery paths share one schema. The queue marshals it compact,
// which drops the raw message's indent.
func (s *server) webhookPayload(snap jobqueue.Snapshot) any {
	return json.RawMessage(s.responseBody(jobResponseOf(snap), jobResult(snap)))
}

// handleJobs serves the collection: POST submits, GET lists.
func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleJobSubmit(w, r)
	case http.MethodGet:
		s.handleJobList(w, r)
	default:
		http.Error(w, "POST or GET only", http.StatusMethodNotAllowed)
	}
}

// handleJobSubmit accepts the same request forms as /compile (plus
// the webhook field/param) and parks the compilation on the queue:
// 202 Accepted with the queued jobResponse and a Location header.
// Jobs do not stream: a ?stream= value that asks to is a 400.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if stream, err := streaming(q); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	} else if stream {
		http.Error(w, "jobs do not stream: "+streamHint, http.StatusBadRequest)
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
	snap, err := s.queue.Submit(jobqueue.Request{Job: s.batchJob(in), Webhook: in.webhook, Fleet: in.fleet, DeviceSpec: in.devSpec})
	if err != nil {
		// A full backlog or a draining daemon is load, not client
		// error: 503 tells well-behaved clients to back off and retry.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Location", "/jobs/"+snap.ID)
	w.WriteHeader(http.StatusAccepted)
	s.writeJob(w, snap)
}

// handleJobList reports every retained job (newest first) plus the
// queue counters.
func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	snaps := s.queue.List()
	jobs := make([]jobResponse, len(snaps))
	for i, snap := range snaps {
		// The list is a dashboard, not a result fetch: summaries only
		// (no QASM). Poll the job URL for the full result.
		jobs[i] = jobResponseOf(snap)
	}
	writeJSON(w, map[string]any{
		"jobs":  jobs,
		"stats": s.queue.Stats(),
	})
}

// handleJobByID serves one job: GET polls (long-poll via ?wait=),
// DELETE cancels.
func (s *server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	if id == "" || strings.Contains(id, "/") {
		http.Error(w, "bad job path", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		wait, err := parseWait(r.URL.Query().Get("wait"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The long-poll parks on the client context OR the daemon's
		// drain signal — a shutting-down daemon answers parked polls
		// with their current snapshot instead of holding http.Shutdown
		// hostage for the rest of the wait window.
		ctx, cancel := context.WithCancel(r.Context())
		go func() {
			select {
			case <-s.draining:
				cancel()
			case <-ctx.Done():
			}
		}()
		snap, err := s.queue.Wait(ctx, id, wait)
		cancel()
		if jobError(w, err) {
			return
		}
		s.writeJob(w, snap)
	case http.MethodDelete:
		snap, err := s.queue.Cancel(id)
		if jobError(w, err) {
			return
		}
		s.writeJob(w, snap)
	default:
		http.Error(w, "GET or DELETE only", http.StatusMethodNotAllowed)
	}
}

// parseWait parses the ?wait= long-poll window: a Go duration
// ("1.5s") or bare seconds ("2"). Values above maxLongPoll are
// rejected, not clamped — a silent clamp would let clients believe
// they waited the full window when the daemon cut it short.
func parseWait(raw string) (time.Duration, error) {
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		var secs float64
		if _, serr := fmt.Sscanf(raw, "%g", &secs); serr != nil {
			return 0, fmt.Errorf("bad wait %q: want a duration like 5s", raw)
		}
		d = time.Duration(secs * float64(time.Second))
	}
	if d < 0 {
		return 0, fmt.Errorf("bad wait %q: must be non-negative", raw)
	}
	if d > maxLongPoll {
		return 0, fmt.Errorf("bad wait %q: exceeds the %s long-poll cap", raw, maxLongPoll)
	}
	return d, nil
}

// jobError maps queue errors onto HTTP statuses; it reports whether a
// response was written.
func jobError(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, jobqueue.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
	return true
}
