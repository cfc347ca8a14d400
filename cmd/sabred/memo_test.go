package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/qasm"
	"repro/internal/workloads"
)

// memoEntries returns the memo's circuits, most recently used first.
func memoEntries(m *circuitMemo) []*circuit.Circuit {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*circuit.Circuit
	for e := m.lru.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*memoEntry).circ)
	}
	return out
}

// post sends body to url and returns the status and response body.
func post(t *testing.T, url, contentType, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, b
}

// TestMemoSharesConcurrentRequests: identical sources sent at once, as
// raw bodies and as JSON envelopes, share one memo entry and get the
// same body, and the shared circuit is still the one Parse makes.
func TestMemoSharesConcurrentRequests(t *testing.T) {
	ts, srv := newTestServer(t)
	src := qasm.Format(workloads.QFT(6))
	env, err := json.Marshal(compileRequest{QASM: src, Device: "tokyo", Options: optionsRequest{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	round := func() [][]byte {
		bodies := make([][]byte, n)
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var status int
				if i%2 == 0 {
					status, bodies[i] = post(t, ts.URL+"/compile?device=tokyo&seed=3", "text/plain", src)
				} else {
					status, bodies[i] = post(t, ts.URL+"/compile", "application/json", string(env))
				}
				if status != http.StatusOK {
					t.Errorf("request %d: status %d: %s", i, status, bodies[i])
				}
			}()
		}
		wg.Wait()
		return bodies
	}
	// The first round races the result cache too: the compile that ran
	// reports cache_hit false, the requests that joined it true.
	bodies := round()
	for i, b := range bodies {
		bodies[i] = bytes.Replace(b, []byte(`"cache_hit": false`), []byte(`"cache_hit": true`), 1)
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0 beyond cache_hit:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	bodies = round()
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("request %d body differs from request 0:\n%s\nvs\n%s", i, b, bodies[0])
		}
	}

	st := srv.memo.snapshot()
	if st.Entries != 1 || st.Hits+st.Misses != 2*n || st.Misses == 0 || st.Hits < n {
		t.Fatalf("memo stats %+v: want 1 entry and %d lookups, at least %d of them hits", st, 2*n, n)
	}
	fresh, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	kept := memoEntries(srv.memo)[0]
	if !kept.Equal(fresh) || kept.Name() != fresh.Name() {
		t.Fatalf("memoized circuit %v changed from a fresh parse %v", kept, fresh)
	}
}

// TestMemoBudgetLRU: the memo keeps at most its budget, evicts the
// least recently used entry first, and keeps no circuit larger than the
// whole budget.
func TestMemoBudgetLRU(t *testing.T) {
	src := func(n int) string { return qasm.Format(workloads.GHZ(n)) } // n gates
	size := func(src string) int {
		c, err := qasm.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		_, n := compact(c)
		return n
	}
	a, b, c, big := src(4), src(5), src(6), src(24)
	budget := size(a) + size(c)
	if size(a)+size(b) > budget || size(b)+size(c) <= budget || size(big) <= budget {
		t.Fatalf("entry sizes %d %d %d %d do not fit the test's budget of %d", size(a), size(b), size(c), size(big), budget)
	}
	m := newCircuitMemo(budget)
	mustParse := func(s string) *circuit.Circuit {
		t.Helper()
		circ, _, err := m.parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if st := m.snapshot(); st.Bytes > budget {
			t.Fatalf("memo holds %d bytes over its budget of %d", st.Bytes, budget)
		}
		return circ
	}
	ca := mustParse(a)
	mustParse(b)
	if got := mustParse(a); got != ca {
		t.Fatal("a repeated source was parsed again")
	}
	mustParse(c) // a+b+c > budget: evicts b, the least recently used
	if got := memoEntries(m); len(got) != 2 || got[0].NumGates() != 6 || got[1] != ca {
		t.Fatalf("after eviction the memo holds %v, want [c a]", got)
	}
	mustParse(big)
	want := memoStats{Hits: 1, Misses: 4, Entries: 2, Gates: 10, Bytes: budget, Evictions: 1}
	if st := m.snapshot(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	mustParse(b) // evicts a, then c
	if st := m.snapshot(); st.Entries != 1 || st.Gates != 5 || st.Bytes != size(b) || st.Evictions != 3 {
		t.Fatalf("stats %+v after re-adding b: want 1 entry of 5 gates and 3 evictions", st)
	}
	// An empty circuit is charged memoEntryBytes, so empty circuits
	// cannot grow the map without bound.
	budget = 2 * memoEntryBytes
	m = newCircuitMemo(budget)
	for i := range 5 {
		mustParse(fmt.Sprintf("OPENQASM 2.0;\nqreg q[%d];\n", i+1))
	}
	if st := m.snapshot(); st.Entries != 2 || st.Evictions != 3 {
		t.Fatalf("empty circuits: stats %+v, want 2 entries and 3 evictions", st)
	}
}

// TestMemoRetainedHeapWithinBudget: what the memo keeps on the heap
// stays within its budget, also for sources that make Parse reserve far
// more than their gates need: a comment full of semicolons (Parse
// reserves a gate slot per semicolon, up to one per 7 bytes), a lone
// parameter (Parse keeps parameters in 2 KB slabs), and tiny sources
// whose cost is the entry itself. Every entry keeps a cache-key state.
func TestMemoRetainedHeapWithinBudget(t *testing.T) {
	const budget = 4 << 20
	dev := arch.IBMQ20Tokyo()
	flood := strings.Repeat(";", 1000)
	families := map[string]func(i int) string{
		"semicolon comment": func(i int) string {
			return fmt.Sprintf("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n// %d %s\n", i, flood)
		},
		"one parameter": func(i int) string {
			return fmt.Sprintf("OPENQASM 2.0;\nqreg q[1];\nrz(%d) q[0];\n", i)
		},
		"empty": func(i int) string {
			return fmt.Sprintf("OPENQASM 2.0;\nqreg q[1];\n// %d\n", i)
		},
	}
	for name, src := range families {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			m := newCircuitMemo(budget)
			for i := range 2 * budget / memoEntryBytes {
				_, e, err := m.parse(src(i))
				if err != nil || e == nil {
					t.Fatalf("source %d: kept %v, error %v", i, e != nil, err)
				}
				e.keepKeyState(dev)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			st := m.snapshot()
			t.Logf("%d entries, %d bytes charged, %d bytes kept (%.0f per entry)", st.Entries, st.Bytes, kept, float64(kept)/float64(st.Entries))
			if kept > budget {
				t.Fatalf("memo keeps %d heap bytes over its budget of %d", kept, budget)
			}
			if st.Bytes > budget || st.Bytes < budget/2 || st.Evictions == 0 {
				t.Fatalf("stats %+v: want the memo full and evicting within its budget of %d bytes", st, budget)
			}
			runtime.KeepAlive(m)
		})
	}
}

// TestMemoKeepsNoSourceBytes: the memo parses a raw body through a
// string view of the read buffer, so the circuit it keeps must hold no
// byte of that buffer. Overwriting the buffer after the parse leaves
// the kept circuit as a fresh parse of the source makes it.
func TestMemoKeepsNoSourceBytes(t *testing.T) {
	src := qasm.Format(workloads.QFT(5))
	body := []byte(src)
	m := newCircuitMemo(memoBudget)
	kept, e, err := m.parse(bytesString(body))
	if err != nil || e == nil {
		t.Fatalf("parse: kept %v, error %v", e != nil, err)
	}
	for i := range body {
		body[i] = ';'
	}
	fresh, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !kept.Equal(fresh) || qasm.Format(kept) != src {
		t.Fatal("the kept circuit changed with the body it was parsed from")
	}
	if again, _, _ := m.parse(src); again != kept {
		t.Fatal("the source no longer hits its entry")
	}
}

// TestMemoKeyStateFollowsDevice: an entry keeps the cache-key state of
// the device a state was last made for. A request on that device
// resumes from it and counts; one on another device gets none, and the
// state it keeps replaces the first.
func TestMemoKeyStateFollowsDevice(t *testing.T) {
	tokyo := arch.IBMQ20Tokyo()
	grid, err := arch.FromSpec("grid:4x5")
	if err != nil {
		t.Fatal(err)
	}
	m := newCircuitMemo(memoBudget)
	_, e, err := m.parse(qasm.Format(workloads.QFT(5)))
	if err != nil || e == nil {
		t.Fatalf("parse: kept %v, error %v", e != nil, err)
	}
	if m.keyState(e, tokyo) != nil {
		t.Fatal("a new entry served a key state")
	}
	ks := e.keepKeyState(tokyo)
	if m.keyState(e, tokyo) != ks {
		t.Fatal("the entry did not serve the state kept for its device")
	}
	if m.keyState(e, grid) != nil {
		t.Fatal("a state made for tokyo served grid:4x5")
	}
	e.keepKeyState(grid)
	if m.keyState(e, tokyo) != nil {
		t.Fatal("the tokyo state outlived the grid state that replaced it")
	}
	if got := m.snapshot().KeyResumes; got != 1 {
		t.Fatalf("counted %d resumes, want 1", got)
	}
}

// TestMemoKeepsNoParseErrors: a bad source is parsed, and refused with
// the same 400, every time it is sent.
func TestMemoKeepsNoParseErrors(t *testing.T) {
	ts, srv := newTestServer(t)
	const bad = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\n"
	s1, b1 := post(t, ts.URL+"/compile?device=tokyo", "text/plain", bad)
	s2, b2 := post(t, ts.URL+"/compile?device=tokyo", "text/plain", bad)
	if s1 != http.StatusBadRequest || s2 != s1 || !bytes.Equal(b1, b2) {
		t.Fatalf("bad source: %d %q then %d %q, want the same 400 twice", s1, b1, s2, b2)
	}
	if st := srv.memo.snapshot(); st.Entries != 0 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("memo stats %+v after two parse errors: want 2 misses and nothing kept", st)
	}
}

// TestMemoOverBudgetCompiles: a source whose circuit exceeds the budget
// still compiles, and is not kept.
func TestMemoOverBudgetCompiles(t *testing.T) {
	ts, srv := newTestServer(t)
	srv.memo = newCircuitMemo(4)
	resp, out := postQASM(t, ts.URL+"/compile?device=tokyo&seed=1", qasm.Format(workloads.GHZ(5)))
	if resp.StatusCode != http.StatusOK || out.OriginalGates != 5 {
		t.Fatalf("over-budget compile: status %d, %d original gates", resp.StatusCode, out.OriginalGates)
	}
	if st := srv.memo.snapshot(); st.Entries != 0 || st.Gates != 0 || st.Misses != 1 {
		t.Fatalf("memo stats %+v: an over-budget circuit was kept", st)
	}
}

// TestMemoRecalibrationMissesResultCache: a memoized source still
// misses the result cache once its device is recalibrated.
func TestMemoRecalibrationMissesResultCache(t *testing.T) {
	ts, srv := newTestServer(t)
	src := qasm.Format(workloads.GHZ(6))
	url := ts.URL + "/compile?device=tokyo&seed=2"
	if _, first := postQASM(t, url, src); first.CacheHit {
		t.Fatal("first compile hit the result cache")
	}
	if _, warm := postQASM(t, url, src); !warm.CacheHit {
		t.Fatal("repeated compile missed the result cache")
	}
	if status, body := post(t, ts.URL+"/calibrations/tokyo", "application/json",
		`{"default": 0.01, "edges": [{"a": 0, "b": 1, "error": 0.2}]}`); status != http.StatusOK {
		t.Fatalf("calibration push: %d %s", status, body)
	}
	_, recal := postQASM(t, url, src)
	if recal.CacheHit || recal.CalVersion != 1 {
		t.Fatalf("after recalibration: cache_hit=%v cal_version=%d, want a miss at version 1", recal.CacheHit, recal.CalVersion)
	}
	if st := srv.memo.snapshot(); st.Entries != 1 || st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("memo stats %+v: want one entry, 1 miss and 2 hits", st)
	}
}

// tableIISources returns the QASM sources of the 26 Table II circuits
// and their total gate count.
func tableIISources() ([]string, int) {
	var srcs []string
	gates := 0
	for _, b := range workloads.All() {
		c := b.Build()
		srcs = append(srcs, qasm.Format(c))
		gates += c.NumGates()
	}
	return srcs, gates
}

var benchKey batch.Key

// BenchmarkMemo compares, per gate over the 26 Table II sources,
// qasm.Parse with the memo's miss path (digest, parse and insert into
// an empty memo), the miss path of a request (the same, then keep the
// cache-key state on Tokyo and compute the key from it) and the hit
// path (digest and lookup).
func BenchmarkMemo(b *testing.B) {
	srcs, gates := tableIISources()
	perGate := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(gates), "ns/gate")
	}
	b.Run("parse", func(b *testing.B) {
		for range b.N {
			for _, src := range srcs {
				if _, err := qasm.Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		}
		perGate(b)
	})
	b.Run("miss", func(b *testing.B) {
		for range b.N {
			m := newCircuitMemo(memoBudget)
			for _, src := range srcs {
				if _, _, err := m.parse(src); err != nil {
					b.Fatal(err)
				}
			}
		}
		perGate(b)
	})
	b.Run("miss-key", func(b *testing.B) {
		dev := arch.IBMQ20Tokyo()
		for range b.N {
			m := newCircuitMemo(memoBudget)
			for _, src := range srcs {
				c, e, err := m.parse(src)
				if err != nil {
					b.Fatal(err)
				}
				benchKey = batch.KeyOf(batch.Job{Circuit: c, Device: dev, Options: core.DefaultOptions(), KeyState: e.keepKeyState(dev)})
			}
		}
		perGate(b)
	})
	b.Run("hit", func(b *testing.B) {
		m := newCircuitMemo(memoBudget)
		for _, src := range srcs {
			m.parse(src)
		}
		b.ResetTimer()
		for range b.N {
			for _, src := range srcs {
				if _, _, err := m.parse(src); err != nil {
					b.Fatal(err)
				}
			}
		}
		perGate(b)
	})
}

// BenchmarkMemoRetained fills a memo to its full budget, the Table II
// sources topped up with random circuits, and reports the heap it
// keeps.
func BenchmarkMemoRetained(b *testing.B) {
	srcs, _ := tableIISources()
	for i := 0; len(srcs) < 64; i++ {
		srcs = append(srcs, qasm.Format(workloads.RandomCircuit("fill", 16, 4000, 0.5, int64(i))))
	}
	var before, after runtime.MemStats
	for range b.N {
		runtime.GC()
		runtime.ReadMemStats(&before)
		m := newCircuitMemo(memoBudget)
		for _, src := range srcs {
			if _, _, err := m.parse(src); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		st := m.snapshot()
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/(1<<20), "MB")
		b.ReportMetric(float64(st.Bytes)/(1<<20), "charged-MB")
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(st.Gates), "B/gate")
		b.ReportMetric(float64(st.Gates), "gates")
		runtime.KeepAlive(m)
	}
}
