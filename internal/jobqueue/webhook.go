package jobqueue

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"time"
)

// defaultPayload is the webhook body when Config.Payload is nil: the
// terminal facts of the job plus summary routing metrics. The daemon
// overrides this with its full compile response so webhook consumers
// see exactly what a poller sees.
type defaultPayload struct {
	JobID    string `json:"job_id"`
	State    State  `json:"state"`
	Tag      string `json:"tag,omitempty"`
	Error    string `json:"error,omitempty"`
	Gates    int    `json:"gates,omitempty"`
	Depth    int    `json:"depth,omitempty"`
	AddedG   int    `json:"added_gates,omitempty"`
	Elapsed  int64  `json:"elapsed_ns,omitempty"`
	Finished string `json:"finished,omitempty"`
}

// buildPayload materializes the webhook body for one terminal job.
func (q *Queue) buildPayload(snap Snapshot) any {
	if q.cfg.Payload != nil {
		return q.cfg.Payload(snap)
	}
	p := defaultPayload{
		JobID:    snap.ID,
		State:    snap.State,
		Tag:      snap.Request.Job.Tag,
		Error:    snap.Err,
		Finished: snap.Finished.UTC().Format(time.RFC3339Nano),
	}
	if snap.Result != nil && snap.Result.Result != nil {
		p.Gates = snap.Result.Final.NumGates()
		p.Depth = snap.Result.Final.Depth()
		p.AddedG = snap.Result.AddedGates
		p.Elapsed = snap.Result.Elapsed.Nanoseconds()
	}
	return p
}

// deliver POSTs the completion payload to the job's webhook URL with
// bounded retries and capped, jittered exponential backoff. Any 2xx
// response settles delivery; a permanent 4xx (anything but 408/429)
// settles it as failed immediately — retrying a rejection is noise;
// other failures retry until MaxAttempts, after which the job's
// WebhookStatus records the exhaustion and the queue counts it. The
// queue's hook context aborts in-flight deliveries on drain deadline.
func (q *Queue) deliver(j *job, snap Snapshot) {
	defer q.hooks.Done()
	body, err := json.Marshal(q.buildPayload(snap))
	if err != nil {
		q.recordDelivery(j, 0, false, fmt.Sprintf("encode payload: %v", err))
		return
	}
	client := q.cfg.Webhook.Client
	if client == nil {
		client = http.DefaultClient
	}
	backoff := q.cfg.Webhook.Backoff
	for attempt := 1; attempt <= q.cfg.Webhook.MaxAttempts; attempt++ {
		if attempt > 1 {
			select {
			case <-time.After(retryDelay(backoff, snap.ID, attempt)):
				backoff *= 2
				if backoff > q.cfg.Webhook.MaxBackoff {
					backoff = q.cfg.Webhook.MaxBackoff
				}
			case <-q.hookCtx.Done():
				q.recordDelivery(j, attempt-1, false, "aborted by shutdown")
				return
			}
		}
		status, err := q.post(client, snap.Request.Webhook, body, snap.ID, attempt)
		if err == nil {
			q.recordDelivery(j, attempt, true, "")
			return
		}
		if permanentStatus(status) {
			q.recordDelivery(j, attempt, false, err.Error()+" (permanent; not retried)")
			break
		}
		q.recordDelivery(j, attempt, false, err.Error())
	}
	q.mu.Lock()
	q.hooksFailed++
	q.mu.Unlock()
}

// retryDelay jitters the backoff into [backoff/2, backoff) with a
// deterministic hash of (job ID, attempt): completions that finish
// together spread their retries without consulting a global PRNG, and
// a given job's retry schedule is reproducible.
func retryDelay(backoff time.Duration, id string, attempt int) time.Duration {
	half := backoff / 2
	if half <= 0 {
		return backoff
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(attempt))
	h.Write(b[:])
	frac := float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	return half + time.Duration(frac*float64(half))
}

// permanentStatus reports whether an HTTP status can never be cured
// by retrying: any 4xx except 408 (request timeout) and 429 (rate
// limited). Transport errors and 5xx (status 0 or >= 500) remain
// retryable.
func permanentStatus(status int) bool {
	return status >= 400 && status < 500 &&
		status != http.StatusRequestTimeout && status != http.StatusTooManyRequests
}

// post performs one delivery attempt; it returns the response status
// (0 when no response arrived) alongside the failure, so deliver can
// classify permanence.
func (q *Queue) post(client *http.Client, url string, body []byte, id string, attempt int) (int, error) {
	ctx, cancel := context.WithTimeout(q.hookCtx, q.cfg.Webhook.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Sabre-Job", id)
	req.Header.Set("X-Sabre-Attempt", strconv.Itoa(attempt))
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	// Drain (bounded) before close so the transport can reuse the
	// connection for the next delivery instead of tearing it down.
	io.Copy(io.Discard, io.LimitReader(resp.Body, 256<<10))
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp.StatusCode, fmt.Errorf("webhook status %s", resp.Status)
	}
	return resp.StatusCode, nil
}

// recordDelivery updates the job's webhook bookkeeping after one
// attempt (or final success).
func (q *Queue) recordDelivery(j *job, attempts int, delivered bool, lastErr string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if attempts > j.webhook.Attempts {
		j.webhook.Attempts = attempts
	}
	j.webhook.Delivered = delivered
	j.webhook.LastError = lastErr
	if delivered {
		q.hooksOK++
	}
}
