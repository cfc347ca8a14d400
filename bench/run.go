package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/qasm"
)

// metric is one reported number with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is one workload's run: what -out writes and what the final
// stdout line summarizes.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Header    header             `json:"header"`
	Phases    map[string]float64 `json:"phase_seconds"`
	Metrics   map[string]metric  `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`

	mu sync.Mutex
}

func newResult(workload string, seed int64, trace bool) *result {
	return &result{Workload: workload, Seed: seed, Trace: trace, Phases: map[string]float64{}, Metrics: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

func (r *result) phase(name string, since time.Time) { r.Phases[name] = time.Since(since).Seconds() }

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation; the first few are kept verbatim.
func (r *result) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// env is what every run shares: a scratch directory, the built daemon
// and the sizes.
type env struct {
	tmp    string
	sabred string
	cfg    config
	plans  map[string]replayPlan
}

// device is the target every workload compiles for.
func device() *arch.Device {
	d, err := arch.FromSpec("tokyo")
	if err != nil {
		panic(err) // a catalogue name; only a bug can make it fail
	}
	return d
}

// parallel runs fn(0..n-1) on two goroutines: verification runs after
// the daemon stopped, so both cores are free.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// originals parses each distinct input once, as the daemon parsed it.
func originals(lists ...[]request) (map[string]*circuit.Circuit, error) {
	out := map[string]*circuit.Circuit{}
	for _, reqs := range lists {
		for _, r := range reqs {
			if _, ok := out[r.circuit]; ok {
				continue
			}
			c, err := qasm.Parse(string(r.body))
			if err != nil {
				return nil, fmt.Errorf("parse input %s: %w", r.circuit, err)
			}
			out[r.circuit] = c
		}
	}
	return out, nil
}

// runE2E measures one workload through a real daemon with tracing off.
func runE2E(e *env, workload string, seed int64) (*result, error) {
	res := newResult(workload, seed, false)
	t := time.Now()
	in, err := generate(workload, seed, e.cfg)
	if err != nil {
		return nil, err
	}
	res.phase("generate", t)

	// Boot times swing with the host's load from one fraction of a
	// second to the next, so half the boots run now and half after
	// verification, and setup_s is the median of both halves.
	t = time.Now()
	boots, err := bootTimes(e, workload, e.cfg.boots/2)
	if err != nil {
		return nil, err
	}
	d, _, err := bootFor(e.sabred, workload, e.tmp)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	res.phase("setup", t)

	warmEx := compileExchange(true)
	if workload == wLargeJobs {
		warmEx = jobExchange
	}
	t = time.Now()
	warm := sequential(d.base, in.warm, warmEx)
	res.phase("warmup", t)

	pid := d.cmd.Process.Pid
	cpu0, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	dur := time.Duration(e.cfg.seconds * float64(time.Second))
	t = time.Now()
	var timed []sample
	switch workload {
	case wInteractive:
		timed = openLoop(d.base, in.timed, e.cfg.rate, compileExchange(true))
	case wHotCache:
		timed = closedLoop(d.base, in.timed, clients, dur, compileExchange(false))
	case wLargeJobs:
		timed = closedLoop(d.base, in.timed, clients, dur, jobExchange)
	case wStream:
		timed = closedLoop(d.base, in.timed, 1, dur, compileExchange(true))
	}
	res.phase("timed", t)
	cpu1, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS(pid)
	if err != nil {
		return nil, err
	}
	// One more hit per hot_cache key, fetched whole after timing: every
	// timed hit must match its checksum byte for byte.
	var hits []sample
	if workload == wHotCache {
		hits = sequential(d.base, in.warm, compileExchange(true))
	}
	d.stop()
	res.Attempted = len(timed)

	t = time.Now()
	added, gates, err := verifyRun(res, in, warm, timed, hits)
	if err != nil {
		return nil, err
	}
	res.phase("verify", t)
	t = time.Now()
	more, err := bootTimes(e, workload, e.cfg.boots-len(boots))
	if err != nil {
		return nil, err
	}
	boots = append(boots, more...)
	res.Phases["setup"] += time.Since(t).Seconds()
	res.set("setup_s", median(boots), "s", len(boots))

	var lat, lag []float64
	var first, last time.Duration = math.MaxInt64, 0
	var timedGates int64
	for i := range timed {
		s := &timed[i]
		if s.err != nil || s.status != 200 {
			continue
		}
		lat = append(lat, s.latency().Seconds()*1e3)
		lag = append(lag, (s.sent-s.due).Seconds()*1e3)
		first, last = min(first, s.sent), max(last, s.done)
		timedGates += int64(in.timed[s.req].gates)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: no request succeeded", workload)
	}
	res.set("lat_p50_ms", percentile(lat, 50), "ms", len(lat))
	res.set("lat_p90_ms", percentile(lat, 90), "ms", len(lat))
	if p, ok := tailPercentile(len(lat)); ok {
		res.note("lat_p%g_ms %.6g ms (n=%d, %d beyond)", p, percentile(lat, p), len(lat), int(float64(len(lat))*(100-p)/100))
	}
	if workload == wInteractive {
		res.note("generator lag p50 %.3g ms, max %.3g ms (sent - due)", percentile(lag, 50), percentile(lag, 100))
	}
	res.set("gates_per_s", float64(timedGates)/(last-first).Seconds(), "gates/s", len(lat))
	res.set("cpu_ns_per_gate", float64(cpu1-cpu0)/float64(timedGates), "ns/gate", len(lat))
	res.set("peak_rss_mb", float64(rss)/(1<<20), "MB", 1)
	res.set("g_add_ratio", float64(added)/float64(gates), "gates/gate", int(gates))
	return res, nil
}

// bootTimes boots and stops n daemons, returning each boot's time from
// exec to the first 200 from /healthz, in seconds.
func bootTimes(e *env, workload string, n int) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		d, dur, err := bootFor(e.sabred, workload, e.tmp)
		if err != nil {
			return nil, err
		}
		d.stop()
		out[i] = dur.Seconds()
	}
	return out, nil
}

// qualityPrefix is how many of a closed loop's fresh inputs g_add_ratio
// covers; both closed loops over fresh inputs complete more than this
// in every run.
const qualityPrefix = 128

// verifyRun checks every response of a run after timing and returns the
// added and original gate totals behind g_add_ratio.
func verifyRun(res *result, in *inputs, warm, timed, hits []sample) (added, gates int64, err error) {
	dev := device()
	var origs map[string]*circuit.Circuit
	if in.workload != wStream { // stream outputs are checked without the input circuit
		if origs, err = originals(in.warm, in.timed); err != nil {
			return 0, 0, err
		}
	}
	type outcome struct {
		added, gates int
		qasm         string
		ok           bool
	}
	check := func(list []request, samples []sample, job bool, wantHit bool) []outcome {
		out := make([]outcome, len(samples))
		parallel(len(samples), func(i int) {
			s := &samples[i]
			r := &list[s.req]
			if in.workload == wStream {
				sc, err := checkStream(s, r.gates, dev)
				if err != nil {
					res.fail("%s %s: %v", r.circuit, r.path, err)
					return
				}
				out[i] = outcome{added: sc.added, gates: sc.gatesIn, ok: true}
				return
			}
			resp, err := decodeResponse(s, job)
			if err == nil && resp.CacheHit != wantHit {
				err = fmt.Errorf("cache_hit %v, want %v", resp.CacheHit, wantHit)
			}
			if err == nil {
				err = checkRouted(origs[r.circuit], resp, dev, r.passes)
			}
			if err != nil {
				res.fail("%s %s: %v", r.circuit, r.path, err)
				return
			}
			out[i] = outcome{added: resp.AddedGates, gates: resp.OriginalGates, qasm: resp.QASM, ok: true}
		})
		return out
	}
	sum := func(os []outcome) {
		for _, o := range os {
			added += int64(o.added)
			gates += int64(o.gates)
		}
	}
	job := in.workload == wLargeJobs
	warmOut := check(in.warm, warm, job, false)
	if in.workload != wHotCache {
		out := check(in.timed, timed, job, false)
		if in.workload != wInteractive {
			// A closed loop completes a different number of requests each
			// run; a fixed prefix keeps g_add_ratio exact for a seed.
			out = out[:min(len(out), qualityPrefix)]
		}
		sum(out)
		return added, gates, nil
	}

	// hot_cache: the warm responses are the misses that filled the
	// cache and carry the quality; each key's fetched hit must carry the
	// same program, and every timed hit the fetched hit's exact bytes.
	sum(warmOut)
	hitOut := check(in.warm, hits, false, true)
	sums := make(map[int]uint64, len(hits))
	for i, h := range hits {
		r := &in.warm[h.req]
		if !hitOut[i].ok || !warmOut[i].ok {
			continue
		}
		if hitOut[i].qasm != warmOut[i].qasm {
			res.fail("%s %s: hit program differs from the compiled one", r.circuit, r.path)
			continue
		}
		sums[r.key] = h.sum
	}
	for _, s := range timed {
		r := &in.timed[s.req]
		want, ok := sums[r.key]
		switch {
		case s.err != nil || s.status != 200:
			res.fail("%s %s: status %d: %v", r.circuit, r.path, s.status, s.err)
		case !ok:
			res.fail("%s %s: key has no verified hit", r.circuit, r.path)
		case s.sum != want:
			res.fail("%s %s: %v", r.circuit, r.path, errMismatch)
		}
	}
	return added, gates, nil
}

// runTrace replays a prefix of the workload in-process under spans and
// derives the per-layer metrics; it also sends part of that prefix to a
// real daemon for sabred.overhead_ms and to check that the replay
// produced the daemon's exact output.
func runTrace(e *env, workload string, seed int64, traceOut string) (*result, error) {
	res := newResult(workload, seed, true)
	plan := e.plans[workload]
	t := time.Now()
	in, err := generate(workload, seed, e.cfg)
	if err != nil {
		return nil, err
	}
	reqs := in.timed
	if workload == wHotCache {
		reqs = in.warm // the distinct keys; hits replay over them
	}
	clip := func(n int) int { return min(n, len(reqs)) }
	passes := make([]bool, len(reqs))
	for i := range reqs {
		passes[i] = probePasses(workload, &reqs[i], i)
	}
	res.phase("generate", t)

	// Untraced HTTP: send time minus the daemon's own pass timings.
	t = time.Now()
	httpReqs := make([]request, clip(plan.http))
	for i := range httpReqs {
		httpReqs[i] = reqs[i]
		httpReqs[i].path = compilePath(reqs[i].seed, passes[i])
	}
	d, _, err := bootFor(e.sabred, workload, e.tmp)
	if err != nil {
		return nil, err
	}
	served := sequential(d.base, httpReqs, compileExchange(true))
	d.stop()
	var overhead []float64
	httpQASM := make([]string, len(served))
	for i := range served {
		resp, err := decodeResponse(&served[i], false)
		if err != nil {
			res.fail("%s %s: %v", httpReqs[i].circuit, httpReqs[i].path, err)
			continue
		}
		httpQASM[i] = resp.QASM
		overhead = append(overhead, (served[i].latency()-time.Duration(resp.passesNS())).Seconds()*1e3)
	}
	res.phase("http", t)

	// In-process replay. Each request runs once untraced and once
	// traced, alternating which goes first so neither side always runs
	// on warm caches; the untraced run supplies the compile times
	// batch.overhead_ms subtracts.
	t = time.Now()
	dev := device()
	chainN := clip(plan.chain)
	tr := newTracer(true)
	plain := &replayer{tr: newTracer(false), dev: dev}
	rp := &replayer{tr: tr, dev: dev, scratch: core.NewScratch()}
	untracedOut := make([]chainResult, chainN)
	var untraced, traced time.Duration
	for i := 0; i < chainN; i++ {
		for k := 0; k < 2; k++ {
			start := time.Now()
			if (i+k)%2 == 0 {
				untracedOut[i], err = plain.chain(&reqs[i], passes[i])
				untraced += time.Since(start)
			} else {
				var out chainResult
				out, err = rp.chain(&reqs[i], passes[i])
				traced += time.Since(start)
				if err == nil && i < len(httpQASM) && httpQASM[i] != "" && httpQASM[i] != out.qasm {
					res.fail("%s %s: replayed program differs from the daemon's", httpReqs[i].circuit, httpReqs[i].path)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", reqs[i].circuit, err)
			}
		}
	}
	engineN := min(clip(plan.engine), chainN)
	batchOverhead, err := rp.engineProbe(reqs[:engineN], untracedOut, plan.hits)
	if err != nil {
		return nil, err
	}
	logDir, err := os.MkdirTemp(e.tmp, "trace-joblog-")
	if err != nil {
		return nil, err
	}
	wait, run, err := rp.jobProbe(reqs[:clip(plan.jobs)], logDir)
	if err != nil {
		return nil, err
	}
	for i := 0; i < clip(plan.stream); i++ {
		if err := rp.streamProbe(&reqs[i]); err != nil {
			return nil, fmt.Errorf("stream replay %s: %w", reqs[i].circuit, err)
		}
	}
	res.phase("replay", t)
	res.Attempted = len(served) + chainN

	layerMetrics(res, rp, aggregate(tr.spans), tr.spans)
	res.set("batch.overhead_ms", median(batchOverhead), "ms", len(batchOverhead))
	res.set("jobqueue.wait_ms", mean(wait), "ms", len(wait))
	res.set("jobqueue.run_ms", mean(run), "ms", len(run))
	res.set("sabred.overhead_ms", median(overhead), "ms", len(overhead))
	res.set("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1, "fraction", chainN)
	if traceOut != "" {
		if err := writeChromeTrace(traceOut, tr.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layerMetrics turns the traced spans into the per-layer metrics.
func layerMetrics(res *result, rp *replayer, st map[string]*layerStat, spans []span) {
	get := func(name string) *layerStat {
		if s := st[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	perWork := func(name, metric string) {
		s := get(name)
		res.set(metric, float64(s.dur.Nanoseconds())/float64(s.work), "ns/gate", s.n)
	}
	per := func(name, metric, unit string, scale time.Duration) {
		s := get(name)
		res.set(metric, float64(s.dur)/float64(scale)/float64(s.n), unit, s.n)
	}
	bytesPer := func(name, metric string) {
		s := get(name)
		res.set(metric, float64(s.bytes)/float64(s.work), "B/gate", s.n)
	}
	perWork("qasm.parse", "qasm.parse_ns_per_gate")
	perWork("qasm.format", "qasm.format_ns_per_gate")
	perWork("qasm.scan", "qasm.scan_ns_per_gate")
	perWork("qasm.stream_write", "qasm.stream_write_ns_per_gate")
	per("batch.key", "batch.key_us", "us", time.Microsecond)
	per("batch.hit", "batch.hit_us", "us", time.Microsecond)
	per("core.prepare", "core.prepare_ms", "ms", time.Millisecond)
	bytesPer("core.prepare", "core.prepare_bytes_per_gate")
	per("core.trial", "core.trial_ms", "ms", time.Millisecond)
	trial := get("core.trial")
	res.set("core.trial_ns_per_round", float64(trial.dur.Nanoseconds())/float64(rp.rounds), "ns/round", trial.n)
	bytesPer("core.trial", "core.trial_bytes_per_gate")
	res.set("core.swap_rounds", float64(rp.rounds), "count", trial.n)
	res.set("core.avg_candidates", float64(rp.candidates)/float64(rp.rounds), "count", trial.n)
	res.set("core.extended_rebuilds", float64(rp.rebuilds), "count", trial.n)
	res.set("core.forced_routes", float64(rp.forced), "count", trial.n)
	stream := get("core.stream")
	res.set("core.stream_gates_per_s", float64(stream.work)/stream.dur.Seconds(), "gates/s", stream.n)
	bytesPer("core.stream", "core.stream_bytes_per_gate")
	res.set("core.stream_max_window", float64(rp.maxWindow), "gates", stream.n)
	per("pipeline.peephole", "pipeline.peephole_ms", "ms", time.Millisecond)
	per("pipeline.basis", "pipeline.basis_ms", "ms", time.Millisecond)
	per("pipeline.verify", "pipeline.verify_ms", "ms", time.Millisecond)
	per("metrics.compare", "metrics.compare_ms", "ms", time.Millisecond)
	per("jobqueue.submit", "jobqueue.submit_us", "us", time.Microsecond)

	// Unattributed: the part of request roots no layer span covers.
	self := selfTimes(spans)
	var rootSelf, rootDur time.Duration
	roots := 0
	for i, s := range spans {
		if s.name == "request" {
			rootSelf += self[i]
			rootDur += s.dur()
			roots++
		}
	}
	res.set("trace.unattributed_frac", rootSelf.Seconds()/rootDur.Seconds(), "fraction", roots)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := st[n]
		res.note("span %-20s n=%-6d total %10.3f ms  self %10.3f ms  %12d B", n, s.n, s.dur.Seconds()*1e3, s.self.Seconds()*1e3, s.bytes)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
