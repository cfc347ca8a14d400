package main

// Streaming compile transport.
//
// POST /compile?stream=1 routes the request body through the windowed
// streaming compiler: the QASM is parsed incrementally off the wire
// (no whole-file AST, no body cap), routed gates are written back as
// they retire, and the response is flushed after every chunk — a
// million-gate trace compiles in O(device + window) daemon memory and
// the client sees output before the input has finished uploading.
//
//	POST /compile?stream=1&device=tokyo[&seed=7&chunk=1024&lookahead=256]
//	    Body: OpenQASM 2.0 source, any length. JSON envelopes are not
//	    accepted on the streaming path (the body IS the gate stream).
//	    Response: 200, Content-Type text/plain, the routed program as
//	    incrementally flushed OpenQASM 2.0. Routing statistics arrive
//	    as HTTP trailers after the final chunk:
//	        X-Sabre-Swaps, X-Sabre-Bridges, X-Sabre-Gates-In,
//	        X-Sabre-Gates-Out, X-Sabre-Chunks, X-Sabre-Max-Window,
//	        X-Sabre-Gates-Per-Sec
//	    A request that fails before the first chunk (bad device, bad
//	    options) gets a normal error status; client disconnect before
//	    the first chunk maps to 499. Once bytes are on the wire the
//	    status is committed, so a mid-stream failure — parse error a
//	    megabyte into the body, client gone — aborts the connection:
//	    consumers must treat a response without trailers as torn.
//	    stream=materialized selects the materialized-DAG oracle (same
//	    output bytes, whole-circuit memory) for differential testing.
//
// POST /jobs?stream=1 parks the same compilation on the async queue:
// the routed program is pushed to the mandatory webhook chunk by
// chunk (X-Sabre-Chunk orders them; the concatenation is one complete
// program), with the usual terminal webhook delivery carrying the
// stream statistics. Durable queues (-job-log) refuse streaming jobs.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/jobqueue"
	"repro/internal/qasm"
)

// statusClientClosedRequest is nginx's nonstandard 499: the client
// disconnected before the daemon wrote a response.
const statusClientClosedRequest = 499

// streamMode classifies the ?stream= query value. Empty means the
// request is not a streaming request.
func streamMode(q url.Values) (string, error) {
	v := strings.ToLower(q.Get("stream"))
	switch v {
	case "", "0", "false":
		return "", nil
	case "1", "true", "windowed":
		return "windowed", nil
	case "materialized":
		return "materialized", nil
	}
	return "", fmt.Errorf("bad stream %q (1|materialized)", v)
}

// streamQueryOptions builds core.StreamOptions from ?lookahead= and
// ?chunk=. Zero/absent fields keep the defaults.
func streamQueryOptions(q url.Values) (core.StreamOptions, error) {
	var sopts core.StreamOptions
	for _, p := range []struct {
		name string
		dst  *int
	}{{"lookahead", &sopts.Lookahead}, {"chunk", &sopts.ChunkGates}} {
		v := q.Get(p.name)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return sopts, fmt.Errorf("bad %s %q: want a non-negative integer", p.name, v)
		}
		*p.dst = n
	}
	return sopts, nil
}

// countingWriter holds response bytes back until the first chunk
// commits the stream. The QASM stream writer emits its header at
// construction — before a single gate has routed — so writing through
// eagerly would commit a 200 even for requests that die on the first
// statement. Buffering until the first chunk keeps the line between
// "send a clean error status" and "abort the torn stream" where it
// belongs: at the first routed gate on the wire.
type countingWriter struct {
	w     io.Writer
	f     http.Flusher
	buf   bytes.Buffer
	wrote bool
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if !c.wrote {
		return c.buf.Write(p)
	}
	return c.w.Write(p)
}

// commit flushes the held-back prefix (header + first chunk) to the
// wire and switches to pass-through writes.
func (c *countingWriter) commit() error {
	if !c.wrote {
		c.wrote = true
		if c.buf.Len() > 0 {
			if _, err := c.w.Write(c.buf.Bytes()); err != nil {
				return err
			}
			c.buf.Reset()
		}
	}
	if c.f != nil {
		c.f.Flush()
	}
	return nil
}

// handleCompileStream serves POST /compile?stream=1|materialized; q is
// the request's parsed query.
func (s *server) handleCompileStream(w http.ResponseWriter, r *http.Request, q url.Values, mode string) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		http.Error(w, "streaming compiles take raw QASM bodies, not JSON envelopes", http.StatusBadRequest)
		return
	}
	devName := q.Get("device")
	if devName == "" {
		devName = "tokyo"
	}
	dev, err := s.device(devName)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	opts, err := queryOptions(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sopts, err := streamQueryOptions(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Trailers must be declared before the first body write.
	w.Header().Set("Trailer", strings.Join([]string{
		"X-Sabre-Swaps", "X-Sabre-Bridges", "X-Sabre-Gates-In", "X-Sabre-Gates-Out",
		"X-Sabre-Chunks", "X-Sabre-Max-Window", "X-Sabre-Gates-Per-Sec",
	}, ", "))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	cw := &countingWriter{w: w, f: flusher}
	onChunk := func(int64) error { return cw.commit() }

	var res *core.StreamResult
	switch mode {
	case "windowed":
		// The body is never materialized: the scanner pulls statements
		// off the wire as the router consumes them, so there is no body
		// cap on this path. Interleaving body reads with response writes
		// needs full duplex on HTTP/1.x — without it the server discards
		// the rest of the body at the first flush. HTTP/2 is duplex
		// already, so a not-supported error is fine to ignore.
		_ = http.NewResponseController(w).EnableFullDuplex()
		res, err = s.eng.CompileQASMStream(r.Context(), r.Body,
			batch.StreamJob{Device: dev, Options: opts, Stream: sopts}, cw, onChunk)
	default: // materialized oracle: whole-circuit memory, same bytes
		res, err = s.compileStreamMaterialized(r.Context(), r, dev, opts, sopts, cw, onChunk)
	}
	if err != nil {
		if cw.wrote {
			// Bytes are on the wire under a committed 200: the only
			// honest failure mode left is a torn response. Aborting the
			// connection guarantees no trailers, which is the signal
			// consumers must check.
			panic(http.ErrAbortHandler)
		}
		if r.Context().Err() != nil {
			w.WriteHeader(statusClientClosedRequest)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	st := res.Stats
	w.Header().Set("X-Sabre-Swaps", strconv.Itoa(st.SwapCount))
	w.Header().Set("X-Sabre-Bridges", strconv.Itoa(st.BridgeCount))
	w.Header().Set("X-Sabre-Gates-In", strconv.FormatInt(st.GatesIn, 10))
	w.Header().Set("X-Sabre-Gates-Out", strconv.FormatInt(st.GatesOut, 10))
	w.Header().Set("X-Sabre-Chunks", strconv.Itoa(st.Chunks))
	w.Header().Set("X-Sabre-Max-Window", strconv.Itoa(st.MaxWindow))
	w.Header().Set("X-Sabre-Gates-Per-Sec", strconv.FormatFloat(st.GatesPerSec, 'f', 0, 64))
	// A gate-free program never fires a chunk callback; release the
	// held-back header so the response is still a complete program.
	_ = cw.commit()
}

// compileStreamMaterialized is the oracle arm of the streaming
// endpoint: it parses the whole body (bounded, like /compile) and
// routes it through core.RouteStreamMaterialized, emitting through
// the same incremental writer so the output bytes are identical to
// the windowed path — which is the point: differential testing over
// HTTP without touching the daemon's internals.
func (s *server) compileStreamMaterialized(ctx context.Context, r *http.Request, dev *arch.Device, opts core.Options, sopts core.StreamOptions, w io.Writer, onChunk func(int64) error) (*core.StreamResult, error) {
	body, err := readBody(nil, r)
	if err != nil {
		return nil, err
	}
	circ, err := qasm.Parse(bytesString(body))
	if err != nil {
		return nil, fmt.Errorf("parse QASM: %w", err)
	}
	sink := &qasmHTTPSink{w: qasm.NewStreamWriter(w, dev.NumQubits()), onChunk: onChunk}
	res, err := core.RouteStreamMaterialized(ctx, circ, dev, opts, sopts, sink)
	if err != nil {
		return nil, err
	}
	return res, sink.w.Flush()
}

// qasmHTTPSink mirrors the engine's QASM sink for the oracle arm:
// serialize the chunk, then fire the flush callback.
type qasmHTTPSink struct {
	w       *qasm.StreamWriter
	onChunk func(int64) error
	emitted int64
}

func (s *qasmHTTPSink) Emit(gates []circuit.Gate) error {
	if err := s.w.WriteGates(gates); err != nil {
		return err
	}
	s.emitted += int64(len(gates))
	if s.onChunk != nil {
		return s.onChunk(s.emitted)
	}
	return nil
}

// handleJobSubmitStream serves POST /jobs?stream=1: the body is the
// QASM gate stream, ?webhook= is mandatory (chunks are delivered
// through it), and the job queue streams the routed program out as
// the compilation progresses. 202 Accepted mirrors the unit-job path.
// q is the request's parsed query.
func (s *server) handleJobSubmitStream(w http.ResponseWriter, r *http.Request, q url.Values) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		http.Error(w, "streaming jobs take raw QASM bodies, not JSON envelopes", http.StatusBadRequest)
		return
	}
	devName := q.Get("device")
	if devName == "" {
		devName = "tokyo"
	}
	dev, err := s.device(devName)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	opts, err := queryOptions(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sopts, err := streamQueryOptions(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	webhook := q.Get("webhook")
	if err := validWebhook(webhook); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if webhook == "" {
		http.Error(w, "streaming jobs require ?webhook=: routed chunks are delivered through it", http.StatusBadRequest)
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	snap, err := s.queue.SubmitStream(jobqueue.Request{
		Job:     batch.Job{Device: dev, Options: opts},
		Webhook: webhook,
	}, jobqueue.StreamSpec{QASM: bytesString(body), Options: sopts})
	if err != nil {
		status := http.StatusServiceUnavailable
		if strings.Contains(err.Error(), "durable") {
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Location", "/jobs/"+snap.ID)
	w.WriteHeader(http.StatusAccepted)
	s.writeJob(w, snap)
}
