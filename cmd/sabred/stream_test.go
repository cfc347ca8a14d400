package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/qasm"
	"repro/internal/workloads"
)

func streamSource(t *testing.T, qubits, gates int) string {
	t.Helper()
	return qasm.Format(workloads.RandomCircuit("sabred-stream", qubits, gates, 0.55, 23))
}

// postStream POSTs raw QASM to the streaming endpoint and returns the
// response, its full body, and the trailers observed after the body.
func postStream(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read stream body: %v", err)
	}
	return resp, out
}

// TestCompileStreamParity: the windowed stream the daemon serves is
// byte-identical to core.RouteStreamMaterialized, the materialized
// oracle, run in process under the options the same query yields and
// written through the same QASM stream writer; and it parses.
func TestCompileStreamParity(t *testing.T) {
	ts, srv := newTestServer(t)
	src := streamSource(t, 16, 2500)
	const query = "device=tokyo&chunk=256"

	windowed, wbody := postStream(t, ts.URL+"/compile?stream=1&"+query, src)
	if windowed.StatusCode != http.StatusOK {
		t.Fatalf("windowed status %d: %s", windowed.StatusCode, wbody)
	}
	dev, err := srv.device("tokyo")
	if err != nil {
		t.Fatal(err)
	}
	q, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := queryOptions(q)
	if err != nil {
		t.Fatal(err)
	}
	sopts, err := streamQueryOptions(q)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var oracle bytes.Buffer
	sw := qasm.NewStreamWriter(&oracle, dev.NumQubits())
	if _, err := core.RouteStreamMaterialized(context.Background(), circ, dev, opts, sopts, sw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wbody, oracle.Bytes()) {
		t.Fatalf("windowed stream and materialized oracle differ (%d vs %d bytes)", len(wbody), oracle.Len())
	}
	routed, err := qasm.Parse(string(wbody))
	if err != nil {
		t.Fatalf("streamed QASM does not parse: %v", err)
	}
	if routed.NumQubits() != dev.NumQubits() {
		t.Fatalf("streamed width %d, want %d", routed.NumQubits(), dev.NumQubits())
	}
	for i, g := range routed.Gates() {
		if g.TwoQubit() && !dev.Connected(g.Q0, g.Q1) {
			t.Fatalf("streamed gate %d (%v %d,%d) not device-compliant", i, g.Kind, g.Q0, g.Q1)
		}
	}
}

// TestCompileStreamTrailers: a fully consumed stream exposes the
// routing statistics as HTTP trailers, and they are self-consistent.
func TestCompileStreamTrailers(t *testing.T) {
	ts, _ := newTestServer(t)
	src := streamSource(t, 14, 1500)

	resp, body := postStream(t, ts.URL+"/compile?stream=1&device=tokyo&chunk=128", src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	for _, name := range []string{
		"X-Sabre-Swaps", "X-Sabre-Bridges", "X-Sabre-Gates-In", "X-Sabre-Gates-Out",
		"X-Sabre-Chunks", "X-Sabre-Max-Window", "X-Sabre-Gates-Per-Sec",
	} {
		if resp.Trailer.Get(name) == "" {
			t.Fatalf("trailer %s missing (trailers: %v)", name, resp.Trailer)
		}
	}
	gatesIn, _ := strconv.Atoi(resp.Trailer.Get("X-Sabre-Gates-In"))
	gatesOut, _ := strconv.Atoi(resp.Trailer.Get("X-Sabre-Gates-Out"))
	chunks, _ := strconv.Atoi(resp.Trailer.Get("X-Sabre-Chunks"))
	if gatesIn != 1500 {
		t.Fatalf("gates-in trailer %d, want 1500", gatesIn)
	}
	if gatesOut < gatesIn {
		t.Fatalf("gates-out %d < gates-in %d", gatesOut, gatesIn)
	}
	if chunks < 2 {
		t.Fatalf("chunks trailer %d, want >= 2 at chunk=128", chunks)
	}
	routed, err := qasm.Parse(string(body))
	if err != nil {
		t.Fatal(err)
	}
	// Streamed program = routed gates; measures are absent unless the
	// input had them, so the gate count must match the trailer exactly.
	if got := routed.NumGates(); got != gatesOut {
		t.Fatalf("body has %d gates, gates-out trailer says %d", got, gatesOut)
	}
}

// TestCompileStreamRejects: malformed streaming requests, and requests
// to stream anywhere but POST /compile?stream=1, fail before the first
// byte with ordinary error statuses.
func TestCompileStreamRejects(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name, url, ctype, body string
		status                 int
	}{
		{"bad stream value", "/compile?stream=definitely", "text/plain", "OPENQASM 2.0;", http.StatusBadRequest},
		{"materialized arm", "/compile?stream=materialized", "text/plain", tinyQASM, http.StatusBadRequest},
		{"streaming job", "/jobs?stream=1&webhook=http://127.0.0.1:1/hook", "text/plain", tinyQASM, http.StatusBadRequest},
		{"json envelope", "/compile?stream=1", "application/json", `{"qasm":"x"}`, http.StatusBadRequest},
		{"bad device", "/compile?stream=1&device=nope", "text/plain", "OPENQASM 2.0;", http.StatusBadRequest},
		{"bad lookahead", "/compile?stream=1&lookahead=-3", "text/plain", "OPENQASM 2.0;", http.StatusBadRequest},
		{"bad chunk", "/compile?stream=1&chunk=x", "text/plain", "OPENQASM 2.0;", http.StatusBadRequest},
		{"parse error pre-byte", "/compile?stream=1", "text/plain", "this is not qasm", http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.url, tc.ctype, strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

// TestCompileStreamMemoryIgnoresURL: a streaming request's memory
// follows the gates it routes, not its URL. The retired ?window= hint
// pre-sized the slot arena at about 100 B per requested slot, so one
// one-gate request with window=1048576 allocated 105 MB; the arena now
// grows only with the live window.
func TestCompileStreamMemoryIgnoresURL(t *testing.T) {
	_, srv := newTestServer(t)
	body := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0],q[1];\n"
	post := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.handleCompile(rec, httptest.NewRequest(http.MethodPost, url, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body)
		}
		return rec
	}
	post("/compile?stream=1") // pay the lazily built device and pool state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	post("/compile?stream=1&window=1048576")
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("one-gate streaming request allocated %d bytes, want < 4 MiB", alloc)
	}
}

// TestCompileStreamClientGone499: a request whose context is already
// dead before the router emits anything maps to the nonstandard 499.
func TestCompileStreamClientGone499(t *testing.T) {
	_, srv := newTestServer(t)
	src := streamSource(t, 12, 400)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/compile?stream=1", strings.NewReader(src)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.handleCompile(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("499 response carried %d body bytes", rec.Body.Len())
	}
}

// TestCompileStreamTornOnBodyError: once routed bytes are on the wire
// a mid-stream failure must tear the connection (no trailers, no
// clean EOF) instead of fabricating a complete-looking response.
func TestCompileStreamTornOnBodyError(t *testing.T) {
	ts, _ := newTestServer(t)
	src := streamSource(t, 14, 1200)

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/compile?stream=1&chunk=16", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	go func() {
		// Feed most of the program so chunks flush, then fail the body
		// mid-statement: the scanner surfaces a read error after output
		// has been committed.
		io.Copy(pw, strings.NewReader(src[:len(src)*3/4]))
		pw.CloseWithError(fmt.Errorf("uplink died"))
	}()

	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		// The abort can race the response headers; a transport error is
		// an acceptable shape of "torn".
		return
	}
	defer resp.Body.Close()
	_, readErr := io.ReadAll(resp.Body)
	if readErr == nil {
		// A clean EOF with a complete trailer set would mean the daemon
		// faked success after losing the request body.
		if resp.Trailer.Get("X-Sabre-Gates-Out") != "" {
			t.Fatal("torn stream delivered a complete response with trailers")
		}
	}
}

// TestJobStreamRejects: POST /jobs does not stream. Every ?stream=
// value that asks to stream is a 400 naming /compile?stream=1, and
// stream=0 submits a job exactly as no stream value does.
func TestJobStreamRejects(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, v := range []string{"1", "true", "windowed"} {
		resp, err := http.Post(ts.URL+"/jobs?stream="+v+"&webhook=http://127.0.0.1:1/hook", "text/plain", strings.NewReader(tinyQASM))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "/compile?stream=1") {
			t.Fatalf("stream=%s job: status %d body %q, want 400 naming /compile?stream=1", v, resp.StatusCode, body)
		}
	}
	for _, query := range []string{"", "?stream=0"} {
		resp, err := http.Post(ts.URL+"/jobs"+query, "text/plain", strings.NewReader(tinyQASM))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %q: status %d, want 202", query, resp.StatusCode)
		}
	}
}
