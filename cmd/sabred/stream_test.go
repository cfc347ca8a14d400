package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestCompileStreamParity: the windowed arm and the materialized
// oracle arm must produce byte-identical routed programs over HTTP,
// and both must parse.
func TestCompileStreamParity(t *testing.T) {
	ts, srv := newTestServer(t)
	src := streamSource(t, 16, 2500)

	windowed, wbody := postStream(t, ts.URL+"/compile?stream=1&device=tokyo&chunk=256", src)
	if windowed.StatusCode != http.StatusOK {
		t.Fatalf("windowed status %d: %s", windowed.StatusCode, wbody)
	}
	oracle, obody := postStream(t, ts.URL+"/compile?stream=materialized&device=tokyo&chunk=256", src)
	if oracle.StatusCode != http.StatusOK {
		t.Fatalf("materialized status %d: %s", oracle.StatusCode, obody)
	}
	if !bytes.Equal(wbody, obody) {
		t.Fatalf("windowed and materialized streams differ (%d vs %d bytes)", len(wbody), len(obody))
	}
	routed, err := qasm.Parse(string(wbody))
	if err != nil {
		t.Fatalf("streamed QASM does not parse: %v", err)
	}
	dev, err := srv.device("tokyo")
	if err != nil {
		t.Fatal(err)
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

// TestCompileStreamRejects: malformed streaming requests fail before
// the first byte with ordinary error statuses.
func TestCompileStreamRejects(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name, url, ctype, body string
		status                 int
	}{
		{"bad stream value", "/compile?stream=definitely", "text/plain", "OPENQASM 2.0;", http.StatusBadRequest},
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

// streamChunkSink records webhook chunk deliveries for the async path.
type streamChunkSink struct {
	mu       sync.Mutex
	chunks   map[int][]byte
	terminal []byte
}

func (c *streamChunkSink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if h := r.Header.Get("X-Sabre-Chunk"); h != "" {
		n, _ := strconv.Atoi(h)
		if c.chunks == nil {
			c.chunks = make(map[int][]byte)
		}
		c.chunks[n] = append([]byte(nil), body...)
	} else {
		c.terminal = append([]byte(nil), body...)
	}
	w.WriteHeader(http.StatusOK)
}

func (c *streamChunkSink) concat() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]int, 0, len(c.chunks))
	for id := range c.chunks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var out bytes.Buffer
	for _, id := range ids {
		out.Write(c.chunks[id])
	}
	return out.Bytes()
}

// TestJobStreamEndpoint: POST /jobs?stream=1 parks a streaming job,
// the webhook receives ordered chunks whose concatenation equals the
// synchronous /compile?stream=1 output for the same request.
func TestJobStreamEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	src := streamSource(t, 14, 1000)

	sink := &streamChunkSink{}
	ws := httptest.NewServer(sink)
	defer ws.Close()

	url := ts.URL + "/jobs?stream=1&device=tokyo&chunk=200&webhook=" + ws.URL
	resp, err := http.Post(url, "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var job jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+job.ID {
		t.Fatalf("location %q", loc)
	}

	// Long-poll until terminal.
	deadline := time.Now().Add(30 * time.Second)
	for job.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.State)
		}
		pr, err := http.Get(ts.URL + "/jobs/" + job.ID + "?wait=2s")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(pr.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		pr.Body.Close()
		if job.State == "failed" || job.State == "cancelled" {
			t.Fatalf("job %s: %s", job.State, job.Error)
		}
	}

	// The terminal view carries the streaming accounting: how many
	// chunks went out and the routing summary (the program itself
	// lives only in the webhook deliveries).
	if job.Chunks < 2 {
		t.Fatalf("terminal chunks = %d, want >= 2", job.Chunks)
	}
	if job.Stream == nil || job.Stream.GatesOut < job.Stream.GatesIn || job.Stream.GatesIn != 1000 {
		t.Fatalf("terminal stream stats = %+v", job.Stream)
	}

	// The chunk concatenation must equal the synchronous stream bytes.
	want, wbody := postStream(t, ts.URL+"/compile?stream=1&device=tokyo&chunk=200", src)
	if want.StatusCode != http.StatusOK {
		t.Fatalf("sync stream status %d", want.StatusCode)
	}
	got := sink.concat()
	if !bytes.Equal(got, wbody) {
		t.Fatalf("webhook chunks differ from sync stream (%d vs %d bytes)", len(got), len(wbody))
	}
	if _, err := qasm.Parse(string(got)); err != nil {
		t.Fatalf("chunk concatenation does not parse: %v", err)
	}
}

// TestJobStreamRejects: webhook-less and JSON-bodied streaming job
// submissions are refused up front.
func TestJobStreamRejects(t *testing.T) {
	ts, _ := newTestServer(t)
	src := streamSource(t, 12, 200)

	resp, err := http.Post(ts.URL+"/jobs?stream=1", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("webhook-less stream job: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/jobs?stream=1&webhook=http://localhost:1/h", "application/json", strings.NewReader(`{"qasm":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("JSON stream job: status %d, want 400", resp.StatusCode)
	}
}
