package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/joblog"
	"repro/internal/jobqueue"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/qasm"
)

// replayPlan sizes the traced phase per workload: how many of the
// workload's inputs go through each probe. Every probe runs on every
// workload, so every per-layer metric exists on every workload; the
// README's prediction list says which ones each workload's HTTP path
// actually exercises.
type replayPlan struct {
	chain  int // whole-circuit layer chain, traced and untraced
	http   int // sent to a real daemon for sabred.overhead_ms and output identity
	engine int // batch.Engine misses for batch.overhead_ms
	hits   int // batch.Engine hits, cycling over the engine misses
	jobs   int // durable jobqueue submissions
	stream int // scan, RouteStream, StreamWriter
}

var defaultPlans = map[string]replayPlan{
	wInteractive: {chain: 600, http: 100, engine: 100, hits: 600, jobs: 50, stream: 50},
	wHotCache:    {chain: 104, http: 104, engine: 104, hits: 2000, jobs: 26, stream: 26},
	wLargeJobs:   {chain: 26, http: 13, engine: 6, hits: 26, jobs: 26, stream: 13},
	wStream:      {chain: 2, http: 2, engine: 1, hits: 2, jobs: 2, stream: 2},
}

// probePasses reports whether the replay runs the post-routing passes
// on request i. Interactive requests carry their own choice; the other
// workloads never ask for passes, so a fixed third of their replayed
// inputs runs them as a probe of the pipeline layer.
func probePasses(workload string, r *request, i int) bool {
	if workload == wInteractive {
		return r.passes
	}
	return i%3 == 0
}

// replayer calls the public layer entry points one at a time, under
// spans that share a request id.
type replayer struct {
	tr      *tracer
	dev     *arch.Device
	scratch *core.Scratch // reused by every stream probe, like the daemon's pooled one
	nextReq int64

	// Routing counts from every chain trial's Result.Stats (the final
	// traversal of each trial); deterministic for a seed.
	rounds, candidates, rebuilds, forced int64
	maxWindow                            int
}

func (rp *replayer) newReq() int64 {
	rp.nextReq++
	return rp.nextReq
}

// chainResult is one replayed request's output and the time its
// compile layers took (prepare, trials, select, passes).
type chainResult struct {
	qasm    string
	compile time.Duration
	passes  bool
}

// chain replays what sabred does for one cache-missing compile:
// qasm.Parse → batch.KeyOf → core.Prepare → RunTrialCtx × trials →
// core.SelectBest → passes → metrics.Compare → qasm.Format. Trials run
// sequentially here; the daemon fans them over two workers.
func (rp *replayer) chain(r *request, passes bool) (chainResult, error) {
	tr, id := rp.tr, rp.newReq()
	root := tr.begin("request", id, -1)
	defer tr.end(root, int64(r.gates))

	sp := tr.begin("qasm.parse", id, root)
	circ, err := qasm.Parse(string(r.body))
	tr.end(sp, int64(r.gates))
	if err != nil {
		return chainResult{}, err
	}
	gates := int64(circ.NumGates())
	opts := core.DefaultOptions()
	opts.Seed = r.seed
	var names []string
	if passes {
		names = strings.Split(passList, ",")
	}

	sp = tr.begin("batch.key", id, root)
	_ = batch.KeyOf(batch.Job{Circuit: circ, Device: rp.dev, Options: opts, Passes: names})
	tr.end(sp, gates)

	start := time.Now()
	sp = tr.begin("core.prepare", id, root)
	p, err := core.Prepare(circ, rp.dev, opts)
	tr.end(sp, gates)
	if err != nil {
		return chainResult{}, err
	}
	n := p.Options().Trials
	results, depths := make([]*core.Result, n), make([]int, n)
	// A fresh scratch per request, as each trial worker of the daemon
	// takes one per compile.
	scratch := core.NewScratch()
	for t := 0; t < n; t++ {
		sp = tr.begin("core.trial", id, root)
		results[t], depths[t], err = p.RunTrialCtx(context.Background(), t, scratch)
		tr.end(sp, gates)
		if err != nil {
			return chainResult{}, err
		}
		if tr.on {
			st := results[t].Stats
			rp.rounds += int64(st.SwapRounds)
			rp.candidates += int64(st.TotalCandidates)
			rp.rebuilds += int64(st.ExtendedRebuilds)
			rp.forced += int64(st.ForcedRoutes)
		}
	}
	sp = tr.begin("core.select", id, root)
	best, err := core.SelectBest(results, depths)
	tr.end(sp, int64(n))
	if err != nil {
		return chainResult{}, err
	}
	pc := &pipeline.Ctx{Circuit: best.Circuit, Original: circ, Device: rp.dev, Options: opts, Result: best}
	for _, name := range names {
		pass, err := pipeline.ByName(name)
		if err != nil {
			return chainResult{}, err
		}
		sp = tr.begin("pipeline."+name, id, root)
		err = pass.Run(pc)
		tr.end(sp, int64(pc.Circuit.NumGates()))
		if err != nil {
			return chainResult{}, fmt.Errorf("pass %s: %w", name, err)
		}
	}
	compile := time.Since(start)

	sp = tr.begin("metrics.compare", id, root)
	_ = metrics.Compare(circ, pc.Circuit)
	tr.end(sp, int64(pc.Circuit.NumGates()))

	sp = tr.begin("qasm.format", id, root)
	out := qasm.Format(pc.Circuit)
	tr.end(sp, int64(pc.Circuit.NumGates()))
	return chainResult{qasm: out, compile: compile, passes: passes}, nil
}

// parseJob builds the batch job sabred builds for r.
func parseJob(r *request, dev *arch.Device, passes bool) (batch.Job, error) {
	circ, err := qasm.Parse(string(r.body))
	if err != nil {
		return batch.Job{}, err
	}
	opts := core.DefaultOptions()
	opts.Seed = r.seed
	job := batch.Job{Circuit: circ, Device: dev, Options: opts, UseCalibration: true}
	if passes {
		job.Passes = strings.Split(passList, ",")
	}
	return job, nil
}

// engineProbe submits reqs to a batch.Engine once as misses, returning
// each miss's time beyond the chain's compile layers for the same
// request, then replays hits cycling over them: parse, engine hit,
// compare, format, as the daemon serves a hit.
func (rp *replayer) engineProbe(reqs []request, compiled []chainResult, hits int) ([]float64, error) {
	eng := batch.NewEngine(batch.Config{Workers: 1, TrialWorkers: 1})
	defer eng.Close()
	ctx := context.Background()
	overhead := make([]float64, len(reqs))
	for i := range reqs {
		job, err := parseJob(&reqs[i], rp.dev, compiled[i].passes)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res := <-eng.SubmitContext(ctx, job)
		d := time.Since(start)
		if res.Err != nil || res.CacheHit {
			return nil, fmt.Errorf("engine miss %d: hit=%v err=%v", i, res.CacheHit, res.Err)
		}
		overhead[i] = (d - compiled[i].compile).Seconds() * 1e3
	}
	tr := rp.tr
	for k := 0; k < hits; k++ {
		i := k % len(reqs)
		r := &reqs[i]
		id := rp.newReq()
		root := tr.begin("request", id, -1)
		sp := tr.begin("qasm.parse", id, root)
		job, err := parseJob(r, rp.dev, compiled[i].passes)
		tr.end(sp, int64(r.gates))
		if err != nil {
			return nil, err
		}
		sp = tr.begin("batch.hit", id, root)
		res := <-eng.SubmitContext(ctx, job)
		tr.end(sp, int64(r.gates))
		if res.Err != nil || !res.CacheHit {
			return nil, fmt.Errorf("engine hit %d: hit=%v err=%v", k, res.CacheHit, res.Err)
		}
		sp = tr.begin("metrics.compare", id, root)
		_ = metrics.Compare(job.Circuit, res.Final)
		tr.end(sp, int64(res.Final.NumGates()))
		sp = tr.begin("qasm.format", id, root)
		_ = qasm.Format(res.Final)
		tr.end(sp, int64(res.Final.NumGates()))
		tr.end(root, int64(r.gates))
	}
	return overhead, nil
}

// jobProbe submits reqs one at a time to a durable job queue (fsync on
// every append, as large_jobs' daemon runs) and waits for each, so the
// queue's own wait is dispatch delay, not backlog.
func (rp *replayer) jobProbe(reqs []request, dir string) (wait, run []float64, err error) {
	eng := batch.NewEngine(batch.Config{Workers: 2, TrialWorkers: 2})
	defer eng.Close()
	q, err := jobqueue.Open(eng, jobqueue.Config{Workers: 2, Durable: jobqueue.DurabilityConfig{Dir: dir, Fsync: joblog.FsyncAlways}})
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	defer q.Close(ctx)
	for i := range reqs {
		job, err := parseJob(&reqs[i], rp.dev, false)
		if err != nil {
			return nil, nil, err
		}
		sp := rp.tr.begin("jobqueue.submit", rp.newReq(), -1)
		snap, err := q.Submit(jobqueue.Request{Job: job, DeviceSpec: "tokyo"})
		rp.tr.end(sp, int64(reqs[i].gates))
		if err != nil {
			return nil, nil, err
		}
		done, err := q.Wait(ctx, snap.ID, time.Minute)
		if err != nil {
			return nil, nil, err
		}
		if done.State != jobqueue.StateDone {
			return nil, nil, fmt.Errorf("job %s ended %s: %s", done.ID, done.State, done.Err)
		}
		wait = append(wait, done.Started.Sub(done.Created).Seconds()*1e3)
		run = append(run, done.Finished.Sub(done.Started).Seconds()*1e3)
	}
	return wait, run, nil
}

// collectSink keeps routed chunks in a buffer sized before the span
// opens, so the span's bytes are the router's, not the collector's.
type collectSink struct{ gates []circuit.Gate }

func (s *collectSink) Emit(gs []circuit.Gate) error {
	s.gates = append(s.gates, gs...)
	return nil
}

// streamProbe replays the streaming path in three separated steps:
// qasm.GateScanner over the body, core.RouteStream over the scanned
// gates, qasm.StreamWriter over the routed gates.
func (rp *replayer) streamProbe(r *request) error {
	tr, id := rp.tr, rp.newReq()
	root := tr.begin("request", id, -1)
	defer tr.end(root, int64(r.gates))

	gates := make([]circuit.Gate, 0, r.gates)
	sp := tr.begin("qasm.scan", id, root)
	sc := qasm.NewGateScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		gates = append(gates, sc.Gate())
	}
	tr.end(sp, int64(len(gates)))
	if err := sc.Err(); err != nil {
		return err
	}
	src := core.NewCircuitSource(circuit.New(sc.NumQubits()).AppendTrusted(gates...))
	opts := core.DefaultOptions()
	opts.Seed = r.seed
	sink := &collectSink{gates: make([]circuit.Gate, 0, 3*len(gates)+4096)}
	sp = tr.begin("core.stream", id, root)
	res, err := core.RouteStream(context.Background(), src, rp.dev, opts, core.StreamOptions{}, sink, rp.scratch)
	tr.end(sp, int64(len(gates)))
	if err != nil {
		return err
	}
	rp.maxWindow = max(rp.maxWindow, res.Stats.MaxWindow)

	sp = tr.begin("qasm.stream_write", id, root)
	sw := qasm.NewStreamWriter(io.Discard, rp.dev.NumQubits())
	err = sw.WriteGates(sink.gates)
	if err == nil {
		err = sw.Flush()
	}
	tr.end(sp, int64(len(sink.gates)))
	return err
}
