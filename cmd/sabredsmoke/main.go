// Command sabredsmoke is the end-to-end daemon smoke test behind
// `make sabred-smoke`: it builds cmd/sabred (optionally with -race),
// boots it on an ephemeral port, and drives the full async lifecycle
// over real HTTP — submit via POST /jobs, long-poll to completion,
// assert the verify pass ran and the output is byte-identical to the
// synchronous POST /compile, push a live calibration mid-run and
// require the warm result cache to miss (and the re-route to report
// the new snapshot version), dispatch a fleet compile and check the
// job ran on the reported winner, receive the webhook, cancel a heavy
// job, list the queue, and finally SIGTERM the daemon and require a
// clean graceful drain (exit 0). Any deviation exits non-zero, so CI
// can run it as a step.
//
// With -crash it instead runs the crash-recovery drill: boot the
// daemon on a durable job log, load it with one running and two
// queued jobs, SIGKILL it mid-compile, restart it on the same log
// directory, and require every job to replay under its original ID
// and finish with output byte-identical to a fresh synchronous
// compile. The restarted daemon then absorbs a scripted router panic
// (job fails with the stack, daemon keeps serving) before the final
// graceful drain.
//
// With -stream it runs the streaming smoke instead: stream a
// million-gate QASM trace (generated on the fly, or -stream-fixture
// for CI's cached copy) through POST /compile?stream=1 without ever
// materializing the circuit, check the trailer accounting and that a
// second identical stream is byte-identical, and hold the streamed
// bytes equal to the materialized oracle (core.RouteStreamMaterialized)
// routed in process.
//
//	sabredsmoke [-race] [-crash | -stream [-stream-fixture f | -stream-gates N]] [-timeout 120s]
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/qasm"
	"repro/internal/workloads"
)

var (
	raceFlag      = flag.Bool("race", false, "build the daemon with -race")
	crashFlag     = flag.Bool("crash", false, "run the crash-recovery drill (SIGKILL + replay) instead of the standard lifecycle")
	streamFlag    = flag.Bool("stream", false, "run the streaming smoke (chunked /compile vs the in-process materialized oracle) instead of the standard lifecycle")
	streamFixture = flag.String("stream-fixture", "", "-stream: path to a pre-generated QASM trace (e.g. genbench -stream-gates output); empty generates a temporary one")
	streamGates   = flag.Int("stream-gates", 1000000, "-stream: gate count of the generated fixture when -stream-fixture is empty")
	timeout       = flag.Duration("timeout", 3*time.Minute, "overall smoke budget")
)

func main() {
	flag.Parse()
	start := time.Now()
	deadline := start.Add(*timeout)

	tmp, err := os.MkdirTemp("", "sabredsmoke")
	if err != nil {
		fail("mkdtemp: %v", err)
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "sabred")
	buildArgs := []string{"build", "-o", bin}
	if *raceFlag {
		buildArgs = append(buildArgs, "-race")
	}
	buildArgs = append(buildArgs, "./cmd/sabred")
	if out, err := exec.Command("go", buildArgs...).CombinedOutput(); err != nil {
		fail("build sabred: %v\n%s", err, out)
	}
	step("built sabred (race=%v)", *raceFlag)

	if *crashFlag {
		crashSmoke(bin, deadline)
		fmt.Printf("sabredsmoke: PASS (crash) in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if *streamFlag {
		streamSmoke(bin, deadline, tmp, *streamFixture, *streamGates)
		fmt.Printf("sabredsmoke: PASS (stream) in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}

	daemon := startDaemon(bin)
	defer daemon.kill()

	base := "http://" + daemon.addr
	client := &http.Client{Timeout: 30 * time.Second}

	// Liveness.
	if body := getOK(client, base+"/healthz"); !strings.Contains(string(body), "ok") {
		daemon.fail("healthz = %q", body)
	}
	step("healthz ok at %s", daemon.addr)

	// Webhook sink.
	hookCh := make(chan jobView, 4)
	sinkLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		daemon.fail("webhook listen: %v", err)
	}
	defer sinkLn.Close()
	go func() {
		_ = http.Serve(sinkLn, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var jv jobView
			if err := json.NewDecoder(r.Body).Decode(&jv); err == nil {
				hookCh <- jv
			}
		}))
	}()
	sinkURL := "http://" + sinkLn.Addr().String()

	// Async submit with verify pass + webhook.
	src := qasm.Format(workloads.QFT(8))
	req := map[string]any{
		"qasm": src, "device": "tokyo", "passes": []string{"verify"},
		"options": map[string]any{"seed": 7}, "webhook": sinkURL,
	}
	resp, body := postJSON(client, base+"/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		daemon.fail("POST /jobs status %d: %s", resp.StatusCode, body)
	}
	var job jobView
	mustUnmarshal(body, &job, daemon)
	if job.ID == "" || job.State != "queued" {
		daemon.fail("submit response: %s", body)
	}
	step("submitted %s", job.ID)

	// Long-poll to completion.
	for !terminal(job.State) {
		if time.Now().After(deadline) {
			daemon.fail("job %s stuck in %s", job.ID, job.State)
		}
		b := getOK(client, base+"/jobs/"+job.ID+"?wait=2s")
		mustUnmarshal(b, &job, daemon)
	}
	if job.State != "done" || job.Result == nil {
		daemon.fail("job finished as %s (%s)", job.State, job.Error)
	}
	// The verify pass must have actually run inside the job: it aborts
	// the pipeline on any routing-validity error, so its presence in
	// the executed-pass metrics is the success assertion.
	var sawVerify bool
	for _, p := range job.Result.Passes {
		if p.Pass == "verify" {
			sawVerify = true
		}
	}
	if !sawVerify {
		daemon.fail("verify pass missing from executed passes: %+v", job.Result.Passes)
	}
	step("job done, verify pass ran (g_add=%d, depth=%d)", job.Result.AddedGates, job.Result.Depth)

	// Byte-identical to the synchronous endpoint.
	sresp, sbody := postJSON(client, base+"/compile", req)
	if sresp.StatusCode != http.StatusOK {
		daemon.fail("POST /compile status %d: %s", sresp.StatusCode, sbody)
	}
	var sync compileView
	mustUnmarshal(sbody, &sync, daemon)
	if sync.QASM != job.Result.QASM {
		daemon.fail("async QASM differs from synchronous QASM")
	}
	step("async output byte-identical to POST /compile")

	// Live recalibration: a warm cached result must NOT survive a
	// calibration push — the new snapshot version changes the cache key
	// and the re-route runs under the new weights. (Synchronous
	// /compile requests create no jobs, so the list/stats assertions
	// below stay exact.)
	resp, body = postJSON(client, base+"/compile", req)
	var warm compileView
	mustUnmarshal(body, &warm, daemon)
	if resp.StatusCode != http.StatusOK || !warm.CacheHit || warm.CalVersion != 0 {
		daemon.fail("warm pre-calibration compile: status %d cache_hit=%v cal_version=%d, want hit at version 0",
			resp.StatusCode, warm.CacheHit, warm.CalVersion)
	}
	// The request went out four times (/jobs, then /compile three
	// times): the parse memo served the last three, their cache keys
	// resumed from the key state the first kept, and the three cache
	// hits are the same bytes. The job's poll and webhook already wrote
	// the result, so the last /compile copies the program kept on it.
	_, third := postJSON(client, base+"/compile", req)
	if !bytes.Equal(body, sbody) || !bytes.Equal(third, sbody) {
		daemon.fail("repeated /compile bodies differ:\n%s\nvs\n%s\nvs\n%s", sbody, body, third)
	}
	var memo statsView
	mustUnmarshal(getOK(client, base+"/stats"), &memo, daemon)
	if memo.Memo.Hits < 3 || memo.Memo.Entries < 1 {
		daemon.fail("parse memo counted %d hits and %d entries, want at least 3 and 1", memo.Memo.Hits, memo.Memo.Entries)
	}
	if memo.Memo.KeyResumes < 3 {
		daemon.fail("parse memo counted %d keys resumed from a kept state, want at least 3", memo.Memo.KeyResumes)
	}
	if memo.Programs.Reused < 1 {
		daemon.fail("no response was written from a kept program (kept %d, reused %d)", memo.Programs.Kept, memo.Programs.Reused)
	}
	step("repeated request byte-identical, parse memo hit %d times, %d keys resumed, %d responses from kept programs",
		memo.Memo.Hits, memo.Memo.KeyResumes, memo.Programs.Reused)
	calReq := map[string]any{
		"default": 0.002,
		"edges": []map[string]any{
			{"a": 0, "b": 1, "error": 0.35},
			{"a": 1, "b": 2, "error": 0.30},
		},
	}
	resp, body = postJSON(client, base+"/calibrations/tokyo", calReq)
	var cal struct {
		Version uint64 `json:"version"`
	}
	mustUnmarshal(body, &cal, daemon)
	if resp.StatusCode != http.StatusOK || cal.Version != 1 {
		daemon.fail("calibration push: status %d version %d: %s", resp.StatusCode, cal.Version, body)
	}
	resp, body = postJSON(client, base+"/compile", req)
	var recal compileView
	mustUnmarshal(body, &recal, daemon)
	if resp.StatusCode != http.StatusOK {
		daemon.fail("post-calibration compile status %d: %s", resp.StatusCode, body)
	}
	if recal.CacheHit {
		daemon.fail("stale cached result served after calibration push")
	}
	if recal.CalVersion != 1 {
		daemon.fail("post-calibration cal_version = %d, want 1", recal.CalVersion)
	}
	step("calibration push invalidated the warm cache (cal_version %d)", recal.CalVersion)

	// Fleet dispatch: the daemon picks the device and reports the
	// decision; the compile must land on the reported winner.
	fresp, fbody := postJSON(client, base+"/compile", map[string]any{
		"qasm": src, "fleet": []string{"tokyo", "grid:4x5"},
		"options": map[string]any{"seed": 7},
	})
	var fleetOut struct {
		Device string `json:"device"`
		Fleet  *struct {
			Device string `json:"device"`
			Scores []any  `json:"scores"`
		} `json:"fleet"`
	}
	mustUnmarshal(fbody, &fleetOut, daemon)
	if fresp.StatusCode != http.StatusOK || fleetOut.Fleet == nil ||
		fleetOut.Device != fleetOut.Fleet.Device || len(fleetOut.Fleet.Scores) != 2 {
		daemon.fail("fleet compile: status %d body %s", fresp.StatusCode, fbody)
	}
	step("fleet dispatch chose %s", fleetOut.Fleet.Device)

	// Webhook delivery, same payload as the poll.
	select {
	case hook := <-hookCh:
		if hook.ID != job.ID || hook.State != "done" || hook.Result == nil || hook.Result.QASM != job.Result.QASM {
			daemon.fail("webhook payload mismatch: id=%s state=%s", hook.ID, hook.State)
		}
		step("webhook delivered")
	case <-time.After(time.Until(deadline)):
		daemon.fail("webhook never arrived")
	}

	// Cancel a heavy job.
	heavy := qasm.Format(workloads.RandomCircuit("heavy", 20, 8000, 0.9, 1))
	resp, body = postJSON(client, base+"/jobs", map[string]any{"qasm": heavy, "device": "tokyo", "trials": 64})
	if resp.StatusCode != http.StatusAccepted {
		daemon.fail("heavy submit status %d: %s", resp.StatusCode, body)
	}
	var heavyJob jobView
	mustUnmarshal(body, &heavyJob, daemon)
	dreq, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+heavyJob.ID, nil)
	dresp, err := client.Do(dreq)
	if err != nil {
		daemon.fail("cancel: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		daemon.fail("cancel status %d", dresp.StatusCode)
	}
	for !terminal(heavyJob.State) {
		if time.Now().After(deadline) {
			daemon.fail("cancelled job %s stuck in %s", heavyJob.ID, heavyJob.State)
		}
		b := getOK(client, base+"/jobs/"+heavyJob.ID+"?wait=2s")
		mustUnmarshal(b, &heavyJob, daemon)
	}
	if heavyJob.State != "cancelled" {
		daemon.fail("heavy job finished as %s, want cancelled", heavyJob.State)
	}
	step("cancel honored (job %s)", heavyJob.ID)

	// List + stats sanity.
	var list struct {
		Jobs  []jobView `json:"jobs"`
		Stats struct {
			Submitted int64 `json:"submitted"`
			Done      int64 `json:"done"`
			Cancelled int64 `json:"cancelled"`
		} `json:"stats"`
	}
	mustUnmarshal(getOK(client, base+"/jobs"), &list, daemon)
	if len(list.Jobs) != 2 || list.Stats.Submitted != 2 || list.Stats.Done != 1 || list.Stats.Cancelled != 1 {
		daemon.fail("list/stats mismatch: %d jobs, stats %+v", len(list.Jobs), list.Stats)
	}
	step("list/stats consistent")

	// Graceful drain: SIGTERM must exit 0 after draining.
	if err := daemon.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		daemon.fail("signal: %v", err)
	}
	select {
	case err := <-daemon.waitCh:
		if err != nil {
			daemon.fail("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(time.Until(deadline)):
		daemon.fail("daemon did not drain after SIGTERM")
	}
	if !strings.Contains(daemon.logs(), "drained") {
		daemon.fail("daemon log missing drain confirmation")
	}
	step("graceful drain clean")
	fmt.Printf("sabredsmoke: PASS in %v\n", time.Since(start).Round(time.Millisecond))
}

// crashSmoke is the -crash drill: durable log, SIGKILL mid-compile,
// replay on restart, byte-identical results, panic isolation, drain.
func crashSmoke(bin string, deadline time.Time) {
	logDir, err := os.MkdirTemp("", "sabredsmoke-joblog")
	if err != nil {
		fail("mkdtemp: %v", err)
	}
	defer os.RemoveAll(logDir)

	durableArgs := []string{
		"-job-log", logDir, "-fsync", "always",
		"-job-workers", "1", "-fault-routes",
	}
	daemon := startDaemon(bin, durableArgs...)
	defer daemon.kill()
	base := "http://" + daemon.addr
	client := &http.Client{Timeout: 30 * time.Second}

	// One heavy job to pin the single job worker, two quick ones to
	// sit in the backlog behind it. Every request carries a distinct
	// seed so the replayed results are three distinct circuits.
	heavySrc := qasm.Format(workloads.RandomCircuit("crash-heavy", 20, 5000, 0.9, 1))
	reqs := []map[string]any{
		{"qasm": heavySrc, "device": "tokyo", "trials": 8, "options": map[string]any{"seed": 7}},
		{"qasm": qasm.Format(workloads.QFT(7)), "device": "tokyo", "options": map[string]any{"seed": 11}},
		{"qasm": qasm.Format(workloads.GHZ(8)), "device": "tokyo", "options": map[string]any{"seed": 13}},
	}
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		resp, body := postJSON(client, base+"/jobs", req)
		if resp.StatusCode != http.StatusAccepted {
			daemon.fail("submit %d: status %d: %s", i, resp.StatusCode, body)
		}
		var jv jobView
		mustUnmarshal(body, &jv, daemon)
		ids[i] = jv.ID
	}
	step("submitted %d durable jobs", len(ids))

	// Wait for the worker to pick up the heavy job so the SIGKILL
	// provably lands mid-compile with a populated backlog.
	for {
		if time.Now().After(deadline) {
			daemon.fail("queue never reached running=1 queued=2")
		}
		var st statsView
		mustUnmarshal(getOK(client, base+"/stats"), &st, daemon)
		if st.Queue.Running == 1 && st.Queue.Queued == 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	step("1 running + 2 queued; sending SIGKILL")

	// SIGKILL: no drain, no goodbye. The job log is all that survives.
	if err := daemon.cmd.Process.Kill(); err != nil {
		daemon.fail("SIGKILL: %v", err)
	}
	<-daemon.waitCh

	// Restart on the same log directory: all three jobs must replay
	// under their original IDs.
	daemon2 := startDaemon(bin, durableArgs...)
	defer daemon2.kill()
	base = "http://" + daemon2.addr

	var st statsView
	mustUnmarshal(getOK(client, base+"/stats"), &st, daemon2)
	rec := st.Queue.Recovery
	if rec == nil || rec.Replayed != 3 || rec.Queued != 2 || rec.Running != 1 || rec.Dropped != 0 {
		daemon2.fail("recovery stats = %+v, want replayed=3 queued=2 running=1", rec)
	}
	if !strings.Contains(daemon2.logs(), "replayed 3 jobs") {
		daemon2.fail("boot log missing replay line:\n%s", daemon2.logs())
	}
	step("restart replayed 3 jobs (2 queued, 1 running at crash)")

	// Every replayed job finishes, and — compilation being
	// deterministic — its result is byte-identical to a fresh
	// synchronous compile of the same request.
	for i, id := range ids {
		var jv jobView
		for {
			if time.Now().After(deadline) {
				daemon2.fail("replayed job %s stuck in %q", id, jv.State)
			}
			mustUnmarshal(getOK(client, base+"/jobs/"+id+"?wait=2s"), &jv, daemon2)
			if terminal(jv.State) {
				break
			}
		}
		if jv.State != "done" || jv.Result == nil {
			daemon2.fail("replayed job %s finished as %s (%s)", id, jv.State, jv.Error)
		}
		resp, body := postJSON(client, base+"/compile", reqs[i])
		if resp.StatusCode != http.StatusOK {
			daemon2.fail("POST /compile for %s: status %d: %s", id, resp.StatusCode, body)
		}
		var sync compileView
		mustUnmarshal(body, &sync, daemon2)
		if sync.QASM != jv.Result.QASM {
			daemon2.fail("replayed job %s QASM differs from synchronous compile", id)
		}
	}
	step("all replayed jobs done, byte-identical to POST /compile")

	// Panic isolation: a job routed through the scripted fault router
	// fails with the panic and its stack while the daemon keeps
	// serving everyone else.
	resp, body := postJSON(client, base+"/jobs", map[string]any{
		"qasm": qasm.Format(workloads.GHZ(6)), "device": "tokyo", "route": "panic",
	})
	if resp.StatusCode != http.StatusAccepted {
		daemon2.fail("panic submit: status %d: %s", resp.StatusCode, body)
	}
	var pj jobView
	mustUnmarshal(body, &pj, daemon2)
	for !terminal(pj.State) {
		if time.Now().After(deadline) {
			daemon2.fail("panic job stuck in %s", pj.State)
		}
		mustUnmarshal(getOK(client, base+"/jobs/"+pj.ID+"?wait=2s"), &pj, daemon2)
	}
	if pj.State != "failed" || !strings.Contains(pj.Error, "panic") || !strings.Contains(pj.Error, "goroutine") {
		daemon2.fail("panic job: state=%s error=%q, want failed with a stack", pj.State, pj.Error)
	}
	if body := getOK(client, base+"/healthz"); !strings.Contains(string(body), "ok") {
		daemon2.fail("daemon unhealthy after panic: %q", body)
	}
	if resp, _ := postJSON(client, base+"/compile", reqs[1]); resp.StatusCode != http.StatusOK {
		daemon2.fail("compile after panic: status %d", resp.StatusCode)
	}
	step("router panic isolated (job failed with stack, daemon healthy)")

	// Graceful drain on the survivor.
	if err := daemon2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		daemon2.fail("signal: %v", err)
	}
	select {
	case err := <-daemon2.waitCh:
		if err != nil {
			daemon2.fail("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(time.Until(deadline)):
		daemon2.fail("daemon did not drain after SIGTERM")
	}
	step("graceful drain clean")
}

// streamSmoke is the -stream phase: boot the daemon and drive the
// streaming API end to end — stream a large generated trace through
// POST /compile?stream=1 (trailer accounting, determinism across two
// runs) and hold the streamed bytes equal to the materialized oracle
// routed in process. It boots its own daemon because the standard
// lifecycle asserts exact job counts.
func streamSmoke(bin string, deadline time.Time, tmp, fixture string, gates int) {
	daemon := startDaemon(bin)
	defer daemon.kill()
	base := "http://" + daemon.addr
	// No client timeout: a million-gate stream under -race outlives any
	// fixed per-request budget; the overall deadline still bounds us.
	client := &http.Client{}

	if fixture == "" {
		fixture = filepath.Join(tmp, fmt.Sprintf("stream_%d.qasm", gates))
		f, err := os.Create(fixture)
		if err != nil {
			daemon.fail("fixture create: %v", err)
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		if err := workloads.WriteRandomQASM(bw, 20, gates, 0.55, 7); err != nil {
			daemon.fail("fixture generate: %v", err)
		}
		if err := bw.Flush(); err != nil {
			daemon.fail("fixture flush: %v", err)
		}
		f.Close()
		step("generated %d-gate fixture (%s)", gates, fixture)
	}
	wantGates, err := countGateLines(fixture)
	if err != nil {
		daemon.fail("fixture scan: %v", err)
	}
	step("fixture %s: %d gates", filepath.Base(fixture), wantGates)

	// streamOnce streams the fixture, discards the body through a
	// hash, and returns (sha256, trailers).
	streamOnce := func() (string, http.Header) {
		f, err := os.Open(fixture)
		if err != nil {
			daemon.fail("open fixture: %v", err)
		}
		defer f.Close()
		req, err := http.NewRequest(http.MethodPost, base+"/compile?stream=1&device=tokyo", bufio.NewReaderSize(f, 1<<20))
		if err != nil {
			daemon.fail("stream request: %v", err)
		}
		req.Header.Set("Content-Type", "text/plain")
		resp, err := client.Do(req)
		if err != nil {
			daemon.fail("stream: %v", err)
		}
		defer resp.Body.Close()
		h := sha256.New()
		n, err := io.Copy(h, resp.Body)
		if err != nil {
			daemon.fail("stream: read: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			daemon.fail("stream: status %d", resp.StatusCode)
		}
		if n == 0 {
			daemon.fail("stream: empty body")
		}
		return fmt.Sprintf("%x", h.Sum(nil)), resp.Trailer
	}

	sum1, tr := streamOnce()
	gatesIn := trailerInt(daemon, tr, "X-Sabre-Gates-In")
	gatesOut := trailerInt(daemon, tr, "X-Sabre-Gates-Out")
	chunks := trailerInt(daemon, tr, "X-Sabre-Chunks")
	if gatesIn != wantGates {
		daemon.fail("gates-in trailer %d, fixture has %d", gatesIn, wantGates)
	}
	if gatesOut < gatesIn || chunks < 1 {
		daemon.fail("trailers: gates-out %d (in %d), chunks %d", gatesOut, gatesIn, chunks)
	}
	if tr.Get("X-Sabre-Gates-Per-Sec") == "" {
		daemon.fail("gates/sec trailer missing")
	}
	step("windowed stream: %d gates in, %d out, %d chunks, %s gates/s",
		gatesIn, gatesOut, chunks, tr.Get("X-Sabre-Gates-Per-Sec"))

	// Determinism: a second identical stream yields identical bytes.
	sum2, _ := streamOnce()
	if sum1 != sum2 {
		daemon.fail("two identical windowed streams differ (%s vs %s)", sum1, sum2)
	}
	step("windowed stream deterministic across runs")

	// Byte parity vs the materialized oracle, routed in process. The
	// oracle holds the whole circuit, so it runs only on a fixture under
	// 16 MiB, the daemon's body cap; otherwise CI would need a second
	// small fixture for no extra coverage.
	if fi, err := os.Stat(fixture); err == nil && fi.Size() < 16<<20 {
		if msum := materializedSum(daemon, fixture); msum != sum1 {
			daemon.fail("windowed stream differs from materialized oracle")
		}
		step("windowed bytes == materialized oracle bytes")
	} else {
		step("fixture over the 16 MiB oracle cap; skipping the parity check")
	}

	// Graceful drain.
	if err := daemon.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		daemon.fail("signal: %v", err)
	}
	select {
	case err := <-daemon.waitCh:
		if err != nil {
			daemon.fail("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(time.Until(deadline)):
		daemon.fail("daemon did not drain after SIGTERM")
	}
	step("graceful drain clean")
}

// countGateLines counts the gate statements of a StreamWriter-shaped
// fixture: one statement per line, minus the four header lines.
func countGateLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	lines := 0
	br := bufio.NewReaderSize(f, 1<<20)
	for {
		chunk, err := br.ReadSlice('\n')
		if len(chunk) > 0 && chunk[len(chunk)-1] == '\n' {
			lines++
		}
		if err == io.EOF {
			break
		}
		if err != nil && err != bufio.ErrBufferFull {
			return 0, err
		}
	}
	return lines - 4, nil
}

// trailerInt reads one integer HTTP trailer, failing the smoke if it
// is absent or malformed.
func trailerInt(d *daemon, tr http.Header, name string) int {
	v := tr.Get(name)
	if v == "" {
		d.fail("trailer %s missing (got %v)", name, tr)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		d.fail("trailer %s = %q: %v", name, v, err)
	}
	return n
}

// materializedSum routes the fixture through core.RouteStreamMaterialized
// under the options POST /compile?stream=1&device=tokyo takes (sabred's
// queryOptions with no knobs set: the paper's defaults at seed 0, and
// the default stream options) and returns the sha256 of the program
// qasm.StreamWriter writes, the writer the daemon streams through.
func materializedSum(d *daemon, fixture string) string {
	src, err := os.ReadFile(fixture)
	if err != nil {
		d.fail("oracle: read fixture: %v", err)
	}
	circ, err := qasm.Parse(string(src))
	if err != nil {
		d.fail("oracle: parse fixture: %v", err)
	}
	dev, err := arch.FromSpec("tokyo")
	if err != nil {
		d.fail("oracle: device: %v", err)
	}
	opts := core.DefaultOptions()
	opts.Seed = 0
	h := sha256.New()
	sw := qasm.NewStreamWriter(h, dev.NumQubits())
	if _, err := core.RouteStreamMaterialized(context.Background(), circ, dev, opts, core.StreamOptions{}, sw); err != nil {
		d.fail("oracle: route: %v", err)
	}
	if err := sw.Flush(); err != nil {
		d.fail("oracle: write: %v", err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// statsView mirrors the /stats fields the smokes assert.
type statsView struct {
	Memo struct {
		Hits       int `json:"hits"`
		Entries    int `json:"entries"`
		KeyResumes int `json:"key_resumes"`
	} `json:"memo"`
	Programs struct {
		Kept   int `json:"kept"`
		Reused int `json:"reused"`
	} `json:"programs"`
	Queue struct {
		Queued   int `json:"queued"`
		Running  int `json:"running"`
		Recovery *struct {
			Replayed int `json:"replayed"`
			Queued   int `json:"queued"`
			Running  int `json:"running"`
			Dropped  int `json:"dropped"`
		} `json:"recovery"`
	} `json:"queue"`
}

// jobView mirrors the daemon's jobResponse wire form.
type jobView struct {
	ID     string       `json:"id"`
	State  string       `json:"state"`
	Error  string       `json:"error"`
	Result *compileView `json:"result"`
}

// compileView mirrors the fields of compileResponse the smoke asserts.
type compileView struct {
	AddedGates int    `json:"added_gates"`
	Gates      int    `json:"gates"`
	Depth      int    `json:"depth"`
	QASM       string `json:"qasm"`
	CacheHit   bool   `json:"cache_hit"`
	CalVersion uint64 `json:"cal_version"`
	Passes     []struct {
		Pass string `json:"pass"`
	} `json:"passes"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// daemon wraps the child process with log capture.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	waitCh chan error

	mu  sync.Mutex
	log bytes.Buffer
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// startDaemon launches the built binary on an ephemeral port and
// scrapes the bound address from its log. Extra flags (the crash
// drill's -job-log etc.) are appended to the baseline argument set.
func startDaemon(bin string, extra ...string) *daemon {
	d := &daemon{waitCh: make(chan error, 1)}
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-drain", "30s"}, extra...)
	d.cmd = exec.Command(bin, args...)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		fail("stderr pipe: %v", err)
	}
	if err := d.cmd.Start(); err != nil {
		fail("start sabred: %v", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line + "\n")
			d.mu.Unlock()
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	go func() { d.waitCh <- d.cmd.Wait() }()
	select {
	case d.addr = <-addrCh:
	case err := <-d.waitCh:
		fail("sabred exited before listening: %v\n%s", err, d.logs())
	case <-time.After(30 * time.Second):
		d.kill()
		fail("sabred never reported its address\n%s", d.logs())
	}
	return d
}

func (d *daemon) logs() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

func (d *daemon) kill() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Kill()
	}
}

// fail tears the daemon down, dumps its log, and exits non-zero.
func (d *daemon) fail(format string, args ...any) {
	d.kill()
	fmt.Fprintf(os.Stderr, "sabredsmoke: FAIL: "+format+"\n", args...)
	fmt.Fprintf(os.Stderr, "--- daemon log ---\n%s", d.logs())
	os.Exit(1)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sabredsmoke: FAIL: "+format+"\n", args...)
	os.Exit(1)
}

func step(format string, args ...any) {
	fmt.Printf("sabredsmoke: "+format+"\n", args...)
}

func getOK(client *http.Client, url string) []byte {
	resp, err := client.Get(url)
	if err != nil {
		fail("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fail("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		fail("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

func postJSON(client *http.Client, url string, v any) (*http.Response, []byte) {
	payload, err := json.Marshal(v)
	if err != nil {
		fail("marshal: %v", err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		fail("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fail("POST %s: read: %v", url, err)
	}
	return resp, body
}

func mustUnmarshal(data []byte, v any, d *daemon) {
	if err := json.Unmarshal(data, v); err != nil {
		d.fail("unmarshal %q: %v", data, err)
	}
}
