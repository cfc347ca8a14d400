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
//
// This is the one streaming path. POST /jobs with a ?stream= value
// that asks to stream, and a ?stream= value that is not 0 or 1 (or an
// alias of either), answer 400 naming it, so a client that asks to
// stream never silently gets a different kind of result.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/batch"
	"repro/internal/core"
)

// statusClientClosedRequest is nginx's nonstandard 499: the client
// disconnected before the daemon wrote a response.
const statusClientClosedRequest = 499

// streamHint names the one streaming path in the 400 a request gets
// when it asks to stream anywhere else.
const streamHint = "stream through POST /compile?stream=1"

// streaming reports whether the ?stream= query value asks for the
// windowed streaming compiler.
func streaming(q url.Values) (bool, error) {
	v := strings.ToLower(q.Get("stream"))
	switch v {
	case "", "0", "false":
		return false, nil
	case "1", "true", "windowed":
		return true, nil
	}
	return false, fmt.Errorf("bad stream %q: %s", v, streamHint)
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

// handleCompileStream serves POST /compile?stream=1; q is the
// request's parsed query.
func (s *server) handleCompileStream(w http.ResponseWriter, r *http.Request, q url.Values) {
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

	// The body is never materialized: the scanner pulls statements off
	// the wire as the router consumes them, so there is no body cap on
	// this path. Interleaving body reads with response writes needs
	// full duplex on HTTP/1.x — without it the server discards the rest
	// of the body at the first flush. HTTP/2 is duplex already, so a
	// not-supported error is fine to ignore.
	_ = http.NewResponseController(w).EnableFullDuplex()
	res, err := s.eng.CompileQASMStream(r.Context(), r.Body,
		batch.StreamJob{Device: dev, Options: opts, Stream: sopts}, cw, onChunk)
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
