package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/qasm"
	"repro/internal/workloads"
)

const tinyQASM = "OPENQASM 2.0;\nqreg q[3];\ncx q[0],q[1];\ncx q[0],q[2];\n"

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestCompileRejectsInvalidParams covers every client-error rejection
// path: invalid trials, traversals, extended-set sizes, passes, and
// route values must produce 400 (the client's fault), never 500/422,
// in both the JSON envelope (on /compile and /jobs) and the
// query-parameter form.
func TestCompileRejectsInvalidParams(t *testing.T) {
	ts, _ := newTestServer(t)

	jsonCases := map[string]string{
		"negative trials":          `{"qasm": "` + escaped(tinyQASM) + `", "device": "line:3", "trials": -1}`,
		"negative options.trials":  `{"qasm": "` + escaped(tinyQASM) + `", "device": "line:3", "options": {"trials": -4}}`,
		"oversized trials":         `{"qasm": "` + escaped(tinyQASM) + `", "device": "line:3", "trials": 1000000000}`,
		"oversized options.trials": `{"qasm": "` + escaped(tinyQASM) + `", "device": "line:3", "options": {"trials": 20000}}`,
		"oversized traversals":     `{"qasm": "` + escaped(tinyQASM) + `", "device": "line:3", "options": {"traversals": 1000000001}}`,
		"oversized extended set":   `{"qasm": "` + escaped(tinyQASM) + `", "device": "line:3", "options": {"extended_set_size": 1025}}`,
		"non-post-routing pass":    `{"qasm": "` + escaped(tinyQASM) + `", "device": "line:3", "passes": ["layout"]}`,
		"unknown pass":             `{"qasm": "` + escaped(tinyQASM) + `", "device": "line:3", "passes": ["polish"]}`,
		"unknown route":            `{"qasm": "` + escaped(tinyQASM) + `", "device": "line:3", "route": "warp-drive"}`,
	}
	for name, body := range jsonCases {
		for _, path := range []string{"/compile", "/jobs"} {
			if resp := postJSON(t, ts.URL+path, body); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("JSON %s %s: status %d, want 400", path, name, resp.StatusCode)
			}
		}
	}

	queryCases := map[string]string{
		"non-numeric trials":    "?device=line:3&trials=many",
		"zero trials":           "?device=line:3&trials=0",
		"negative trials":       "?device=line:3&trials=-2",
		"oversized trials":      "?device=line:3&trials=1000000000",
		"non-post-routing pass": "?device=line:3&passes=layout",
		"unknown pass":          "?device=line:3&passes=polish",
		"unknown route":         "?device=line:3&route=warp-drive",
	}
	for name, query := range queryCases {
		resp, _ := postQASM(t, ts.URL+"/compile"+query, tinyQASM)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestCompileRejectsRepeatedOperands: a multi-qubit qelib1 gate
// applied to one qubit twice is a parse error — 400 from both the whole
// circuit and the streaming endpoint — not a panic that drops the
// connection.
func TestCompileRejectsRepeatedOperands(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, stmt := range []string{
		"ccx q[0],q[0],q[1];", "cswap q[1],q[2],q[1];", "cu1(0.5) q[2],q[2];", "cy q[0],q[0];",
		"ch q[1],q[1];", "crz(0.5) q[0],q[0];", "cu3(1,2,3) q[2],q[2];", "rzz(0.5) q[1],q[1];",
	} {
		src := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\n" + stmt + "\n"
		for _, query := range []string{"?device=tokyo", "?device=tokyo&stream=1"} {
			resp, err := http.Post(ts.URL+"/compile"+query, "text/plain", strings.NewReader(src))
			if err != nil {
				t.Fatalf("%s %s: %v", query, stmt, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "qasm:5:1: ") {
				t.Errorf("%s %s: status %d, body %q; want 400 naming line 5", query, stmt, resp.StatusCode, body)
			}
		}
	}
}

// TestCompileAcceptsRegistryRouters drives one compile per registered
// backend spelling through both request forms.
func TestCompileAcceptsRegistryRouters(t *testing.T) {
	ts, _ := newTestServer(t)
	src := qasm.Format(workloads.GHZ(5))

	for _, name := range []string{"sabre", "greedy", "astar", "anneal", "tokenswap", "bka"} {
		resp, out := postQASM(t, ts.URL+"/compile?device=tokyo&route="+name, src)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query route=%s: status %d", name, resp.StatusCode)
		}
		if out.QASM == "" {
			t.Fatalf("query route=%s: empty QASM", name)
		}
	}

	body := `{"qasm": "` + escaped(qasm.Format(workloads.GHZ(4))) + `", "device": "line:5", "route": "tokenswap"}`
	if resp := postJSON(t, ts.URL+"/compile", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON route=tokenswap: status %d", resp.StatusCode)
	}
}

// escaped turns raw QASM into a JSON string body fragment (without
// the surrounding quotes, which the call sites supply).
func escaped(s string) string {
	b, _ := json.Marshal(s)
	return strings.Trim(string(b), `"`)
}
