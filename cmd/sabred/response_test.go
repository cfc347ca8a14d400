package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/jobqueue"
	"repro/internal/metrics"
	"repro/internal/qasm"
	"repro/internal/workloads"
)

// indented is the oracle of every response body: v through
// json.Encoder with a two-space indent, as sabred wrote responses
// before the program was escaped straight from the circuit.
func indented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResponseBytesOracle: a /compile body, a GET /jobs/{id} body and a
// webhook payload carry the same bytes the old encoder made of the same
// value with the program formatted into its "qasm" field. Programs: the
// 26 Table II circuits and one with measurements ("->" escapes as
// -\u003e) named with every kind of escape; every other program
// carries a fleet decision, and the job's tag holds an empty "qasm"
// field and <&>.
func TestResponseBytesOracle(t *testing.T) {
	dev, err := arch.FromSpec("tokyo")
	if err != nil {
		t.Fatal(err)
	}
	var cands []fleet.Candidate
	for i, spec := range []string{"tokyo", "grid:4x5", "line:3"} {
		d, err := arch.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, fleet.Candidate{Device: d, Load: i})
	}
	measured, err := qasm.Parse("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\nrz(0.25) q[2];\nmeasure q -> c;\n")
	if err != nil {
		t.Fatal(err)
	}
	measured.SetName("<&> \u2028\u2029 \"q\" \\ \x01\t\x7f é \xff")
	progs := []*circuit.Circuit{measured}
	for _, b := range workloads.All() {
		progs = append(progs, b.Build())
	}
	created := time.Date(2026, 7, 26, 12, 0, 0, 0, time.UTC)
	s := &server{}
	for i, prog := range progs {
		res := &batch.Result{
			Result: &core.Result{InitialLayout: []int{2, 0, 1}, FinalLayout: []int{0, 2, 1}, SwapCount: 1, AddedGates: 3},
			Final:  prog, Key: batch.Key{1, 2, 3}, CalVersion: 4,
			Report: metrics.Compare(prog, prog),
		}
		in := &compileInput{circ: prog, dev: dev}
		if i%2 == 0 {
			if in.fleet, err = fleet.Schedule(prog, cands, fleet.Weights{}); err != nil {
				t.Fatal(err)
			}
		}
		cr := buildCompileResponse(in, res)
		want := cr
		want.QASM = qasm.Format(prog)
		if got := s.compileBody(&cr, res); !bytes.Equal(got, indented(t, want)) {
			t.Fatalf("%s: /compile body differs from the indenting encoder's:\n%s\nvs\n%s", prog.Name(), got, indented(t, want))
		}

		snap := jobqueue.Snapshot{
			ID: "job-1-ab12cd34ef56", State: jobqueue.StateDone,
			Request: jobqueue.Request{Job: batch.Job{Circuit: prog, Device: dev, Tag: `{"qasm": ""} <&>`}, Fleet: in.fleet},
			Created: created, Started: created.Add(time.Second), Finished: created.Add(2 * time.Second),
			Result:  res,
			Webhook: jobqueue.WebhookStatus{URL: "http://127.0.0.1:1/hook?a=1&b=<2>", Attempts: 1},
		}
		jr := jobResponseOf(snap)
		wantJob := jobResponseOf(snap)
		wantJob.Result.QASM = want.QASM
		if got := s.responseBody(jr, jobResult(snap)); !bytes.Equal(got, indented(t, wantJob)) {
			t.Fatalf("%s: GET /jobs/{id} body differs from the indenting encoder's", prog.Name())
		}
		hook, err := json.Marshal(s.webhookPayload(snap))
		if err != nil {
			t.Fatal(err)
		}
		wantHook, err := json.Marshal(wantJob)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hook, wantHook) {
			t.Fatalf("%s: webhook payload differs from json.Marshal's", prog.Name())
		}
	}
}

// TestResponseBytesEndToEnd: bodies served over HTTP, /compile (with
// and without a fleet decision), GET /jobs/{id} and the webhook
// delivery, are the indenting encoder's (compact for the webhook)
// encoding of what they decode to, whether the program is escaped from
// the circuit or copied from the bytes kept on the result's outcome.
// Results written once keep nothing.
func TestResponseBytesEndToEnd(t *testing.T) {
	hooks := make(chan []byte, 1)
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		hooks <- b
	}))
	defer sink.Close()
	ts, _ := newTestServer(t)
	src := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncreg c[4];\nh q[0];\ncx q[0],q[3];\ncx q[1],q[2];\ncu1(pi/8) q[3],q[1];\nmeasure q -> c;\n"
	compile := func(query string) []byte {
		t.Helper()
		status, body := post(t, ts.URL+"/compile?device=tokyo&"+query, "text/plain", src)
		var cr compileResponse
		if err := json.Unmarshal(body, &cr); status != http.StatusOK || err != nil {
			t.Fatalf("/compile: %d %v: %s", status, err, body)
		}
		if !strings.Contains(cr.QASM, "measure q[") || !bytes.Equal(body, indented(t, cr)) {
			t.Fatalf("/compile body is not the indenting encoder's:\n%s", body)
		}
		return body
	}
	programs := func(kept, reused int64) {
		t.Helper()
		var st struct {
			Programs struct{ Kept, Reused int64 } `json:"programs"`
		}
		if err := json.Unmarshal(get(t, ts.URL+"/stats"), &st); err != nil {
			t.Fatal(err)
		}
		if st.Programs.Kept != kept || st.Programs.Reused != reused {
			t.Fatalf("/stats programs: kept %d, reused %d; want %d, %d", st.Programs.Kept, st.Programs.Reused, kept, reused)
		}
	}

	// Distinct requests, each written once, keep no program.
	for seed := 11; seed <= 14; seed++ {
		compile("seed=" + strconv.Itoa(seed))
	}
	programs(0, 0)

	// The first write escapes the program, the second keeps it, and
	// the third copies the kept bytes.
	var bodies [3][]byte
	for i := range bodies {
		bodies[i] = compile("seed=5")
	}
	programs(1, 1)
	if !bytes.Equal(bodies[1], bodies[2]) {
		t.Fatalf("a /compile served from kept bytes differs:\n%s\nvs\n%s", bodies[1], bodies[2])
	}
	var cr compileResponse
	if err := json.Unmarshal(bodies[2], &cr); err != nil {
		t.Fatal(err)
	}

	// A job on the same key shares the outcome: its polls and its
	// webhook are written from the kept bytes too.
	status, body := post(t, ts.URL+"/jobs?device=tokyo&seed=5&webhook="+sink.URL, "text/plain", src)
	var jr jobResponse
	if err := json.Unmarshal(body, &jr); status != http.StatusAccepted || err != nil {
		t.Fatalf("/jobs: %d %v: %s", status, err, body)
	}
	for poll := 0; poll < 2; poll++ {
		body = get(t, ts.URL+"/jobs/"+jr.ID+"?wait=30s")
		jr = jobResponse{}
		if err := json.Unmarshal(body, &jr); err != nil || jr.State != jobqueue.StateDone || jr.Result == nil {
			t.Fatalf("GET /jobs/{id}: %v: %s", err, body)
		}
		if jr.Result.QASM != cr.QASM || !bytes.Equal(body, indented(t, jr)) {
			t.Fatalf("GET /jobs/{id} body is not the indenting encoder's:\n%s", body)
		}
	}

	select {
	case hook := <-hooks:
		var hr jobResponse
		if err := json.Unmarshal(hook, &hr); err != nil || hr.Result == nil || hr.Result.QASM != cr.QASM {
			t.Fatalf("webhook payload: %v: %s", err, hook)
		}
		if want, _ := json.Marshal(hr); !bytes.Equal(hook, want) {
			t.Fatalf("webhook payload is not json.Marshal's:\n%s", hook)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("webhook never arrived")
	}
	programs(1, 4)

	// A fleet request carries the scheduler's decision in its
	// envelope; the first two writes escape the program, the third
	// copies the kept bytes.
	for i := range bodies {
		status, bodies[i] = post(t, ts.URL+"/compile?fleet=tokyo,grid:4x5&seed=21", "text/plain", src)
		var fr compileResponse
		if err := json.Unmarshal(bodies[i], &fr); status != http.StatusOK || err != nil || fr.Fleet == nil || len(fr.Fleet.Scores) != 2 {
			t.Fatalf("/compile?fleet=: %d %v: %s", status, err, bodies[i])
		}
		if !bytes.Equal(bodies[i], indented(t, fr)) {
			t.Fatalf("/compile?fleet= body is not the indenting encoder's:\n%s", bodies[i])
		}
	}
	if !bytes.Equal(bodies[1], bodies[2]) {
		t.Fatalf("a fleet /compile served from kept bytes differs:\n%s\nvs\n%s", bodies[1], bodies[2])
	}
	programs(2, 5)
}

// get fetches url and returns its body, failing on any status but 200.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v: %s", url, resp.StatusCode, err, body)
	}
	return body
}

// TestAppendStringMatchesEncodingJSON: the envelope's string escaper
// writes what json.Marshal writes for every string of up to two bytes
// and for multi-byte runes, whole, truncated and surrogate-encoded.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	strs := []string{"", "  ", "é", "\U0001F600", "\xe2\x80", "\xed\xa0\x80", "\xf0\x9f\x98", "a b<c>d&e\"f\\g", "�\xff"}
	for b1 := range 256 {
		for b2 := range 256 {
			strs = append(strs, string([]byte{byte(b1), byte(b2)}))
		}
	}
	for _, s := range strs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestCompileHitAllocs: a warmed /compile cache hit served through the
// handler allocates a fixed number of times, whatever the size of its
// body. The body is read into one buffer of its declared length, the
// key resumes from the state kept on the memo entry, the figures come
// from the result's report, and the envelope is appended around the
// kept program. Sources: qft_10 and the largest Table II circuit of at
// most 1000 gates.
func TestCompileHitAllocs(t *testing.T) {
	const bound = 40
	_, srv := newTestServer(t)
	h := srv.routes()
	largest := workloads.QFT(10)
	for _, b := range workloads.All() {
		if c := b.Build(); c.NumGates() <= 1000 && c.NumGates() > largest.NumGates() {
			largest = c
		}
	}
	for _, c := range []*circuit.Circuit{workloads.QFT(10), largest} {
		src := qasm.Format(c)
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile?device=tokyo&seed=3", strings.NewReader(src)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", c.Name(), rec.Code, rec.Body)
			}
		}
		for range 3 { // compile, keep the key state, keep the program
			serve()
		}
		allocs := testing.AllocsPerRun(100, serve)
		t.Logf("%s (%d gates, %d-byte body): %.0f allocations per hit", c.Name(), c.NumGates(), len(src), allocs)
		if allocs > bound {
			t.Errorf("%s: a warmed /compile hit allocates %.0f times, want at most %d", c.Name(), allocs, bound)
		}
	}
	if st := srv.memo.snapshot(); st.KeyResumes < 200 {
		t.Fatalf("memo stats %+v: the measured hits did not resume their keys from kept states", st)
	}
}

// TestReadBodyAllocatesWhatArrives: a body that declares more than
// exactBodyBytes is read as its bytes arrive, so a client that declares
// up to the largest body the daemon accepts and sends a few bytes does
// not make it allocate the declared length. A body that declares at
// most exactBodyBytes is read into one buffer of its length.
func TestReadBodyAllocatesWhatArrives(t *testing.T) {
	const sent = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n"
	for _, declared := range []int64{exactBodyBytes + 1, maxBodyBytes} {
		r := httptest.NewRequest(http.MethodPost, "/compile", strings.NewReader(sent))
		r.ContentLength = declared
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body, err := readBody(nil, r)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > exactBodyBytes/4 {
			t.Errorf("declared %d bytes and sent %d: reading allocated %d bytes", declared, len(sent), grew)
		}
		if err != nil || string(body) != sent {
			t.Errorf("declared %d bytes: read %q, error %v", declared, body, err)
		}
	}
	body, err := readBody(nil, httptest.NewRequest(http.MethodPost, "/compile", strings.NewReader(sent)))
	if err != nil || string(body) != sent || cap(body) != len(sent) {
		t.Fatalf("declared %d bytes: read %q into a buffer of %d, error %v", len(sent), body, cap(body), err)
	}
}
