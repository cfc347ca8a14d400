package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/jobqueue"
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
// -\u003e); the job's tag holds an empty "qasm" field and <&>.
func TestResponseBytesOracle(t *testing.T) {
	dev, err := arch.FromSpec("tokyo")
	if err != nil {
		t.Fatal(err)
	}
	measured, err := qasm.Parse("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\nrz(0.25) q[2];\nmeasure q -> c;\n")
	if err != nil {
		t.Fatal(err)
	}
	progs := []*circuit.Circuit{measured}
	for _, b := range workloads.All() {
		progs = append(progs, b.Build())
	}
	created := time.Date(2026, 7, 26, 12, 0, 0, 0, time.UTC)
	s := &server{}
	for _, prog := range progs {
		res := &batch.Result{
			Result: &core.Result{InitialLayout: []int{2, 0, 1}, FinalLayout: []int{0, 2, 1}, SwapCount: 1, AddedGates: 3},
			Final:  prog, Key: batch.Key{1, 2, 3}, CalVersion: 4,
		}
		in := &compileInput{circ: prog, dev: dev}
		cr := buildCompileResponse(in, res)
		want := cr
		want.QASM = qasm.Format(prog)
		if got := s.responseBody(cr, res); !bytes.Equal(got, indented(t, want)) {
			t.Fatalf("%s: /compile body differs from the indenting encoder's", prog.Name())
		}

		snap := jobqueue.Snapshot{
			ID: "job-1-ab12cd34ef56", State: jobqueue.StateDone,
			Request: jobqueue.Request{Job: batch.Job{Circuit: prog, Device: dev, Tag: `{"qasm": ""} <&>`}},
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

// TestResponseBytesEndToEnd: bodies served over HTTP, /compile,
// GET /jobs/{id} and the webhook delivery, are the indenting encoder's
// (compact for the webhook) encoding of what they decode to, whether
// the program is escaped from the circuit or copied from the bytes
// kept on the result's outcome. Results written once keep nothing.
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
