package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// TrialFunc runs one trial of a best-of-N search on the calling
// worker's scratch and returns its result and its depth, the second
// key of BetterTrial. Prepared.RunTrialCtx is SABRE's trial.
type TrialFunc func(ctx context.Context, trial int, s *Scratch) (*Result, int, error)

// TrialRunner runs the paper's best-of-N protocol — N independent
// trials, trial t under seed Options.Seed+t — on a bounded worker
// pool. It is the only code that loops over trials: SABRE's restarts
// (Route, and through it Compile), InitialMapping's candidates and the
// annealing router's chains all run through Run.
//
// Each worker owns one Scratch; the trials share everything else
// read-only (for SABRE one Prepared: the widened circuit view, its
// dependency table in both directions, and the device's cached
// distance matrices). Results are kept by trial index and the winner
// is selected by BetterTrial — fewest added gates, then depth, then
// lowest trial — so the outcome is byte-identical at any worker count.
//
// With Patience > 0 the runner is adaptive: it starts no new trial
// once Patience consecutive trials, in trial order, have failed to
// improve the incumbent. The population is the shortest prefix of the
// trial sequence that satisfies this rule, a function of the per-trial
// results and never of scheduling, so the winner is the same at any
// worker count and equals what exhaustive selection over that prefix
// picks. Result.TrialsRun reports the population.
//
// A panicking trial must not unwind its worker, which would kill the
// process rather than fail one job. The first panic is recorded with
// its trial index and the worker's stack, the pool starts no further
// trial, and the panic is re-raised on the caller once every worker
// has returned; the batch engine's recover turns it into a failed job.
//
// TrialRunner implements Router under the name sabre. Compile and the
// registry's sabre entry run it at one worker; pipeline.RoutePass runs
// it with the batch engine's trial workers and patience.
type TrialRunner struct {
	// Trials is the number of trials (0 = Options.Trials in Route). In
	// adaptive mode it bounds the population.
	Trials int

	// Workers bounds the pool (0 = GOMAXPROCS). The pool never has more
	// workers than trials.
	Workers int

	// Patience, when positive, ends the run after Patience consecutive
	// non-improving trials. Trials past that point that workers had
	// already started are left out of selection.
	Patience int
}

// Name implements Router.
func (TrialRunner) Name() string { return "sabre" }

// Route implements Router: it prepares circ for dev once, runs Trials
// SABRE restarts (Prepared.RunTrialCtx) and returns the winner.
// Cancellation is honored between trials and inside each trial's SWAP
// loop at round granularity; a cancelled run returns ctx.Err().
func (tr TrialRunner) Route(ctx context.Context, circ *circuit.Circuit, dev *arch.Device, opts Options) (*Result, error) {
	//sabre:nondeterm-ok wall-clock elapsed metric; never feeds routing decisions
	start := time.Now()
	p, err := Prepare(circ, dev, opts)
	if err != nil {
		return nil, err
	}
	if tr.Trials <= 0 {
		tr.Trials = p.opts.Trials
	}
	best, err := tr.Run(ctx, p.RunTrialCtx)
	if err != nil {
		return nil, err
	}
	best.Elapsed = time.Since(start)
	return best, nil
}

// Run runs trials 0..Trials-1 of fn on the pool and returns the winner
// selected by SelectBest over the population — every trial, or the
// adaptive prefix — with TrialsRun set to its size. A cancelled run
// returns ctx.Err(); otherwise a failed trial inside the population
// fails the run with the error of the lowest such trial.
func (tr TrialRunner) Run(ctx context.Context, fn TrialFunc) (*Result, error) {
	n := max(tr.Trials, 0)
	workers := tr.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	p := &trialPool{fn: fn, patience: tr.Patience, results: make([]*Result, n), depths: make([]int, n), stop: n}
	p.wg.Add(workers)
	for range workers {
		go p.work(ctx)
	}
	p.wg.Wait()
	if p.panicked != nil {
		panic(p.panicked)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.err != nil && p.failed < p.stop {
		return nil, p.err
	}
	best, err := SelectBest(p.results[:p.stop], p.depths[:p.stop])
	if err != nil {
		return nil, err
	}
	best.TrialsRun = p.stop
	return best, nil
}

// trialPool is the state the workers of one run share. Workers start
// trials in index order, so when the patience rule fires at stop every
// trial below it has been started, and when a trial fails every lower
// trial has.
type trialPool struct {
	fn       TrialFunc
	patience int
	wg       sync.WaitGroup

	mu       sync.Mutex
	results  []*Result
	depths   []int
	next     int   // next trial to start
	stop     int   // population size: all trials, or where the patience rule fired
	failed   int   // lowest failed trial, valid once err is set
	err      error // failed's error; no trial starts once it is set
	panicked any   // the first panic, with its trial index and stack

	// The patience rule over the completed prefix of the trials: the
	// first trial not yet evaluated, the incumbent, and the run of
	// trials since it last improved.
	watched, best, sinceImp int
}

// work is one worker: it runs trials on its own scratch until the pool
// has none left to start.
func (p *trialPool) work(ctx context.Context) {
	defer p.wg.Done()
	s := NewScratch()
	for {
		trial, ok := p.claim(ctx)
		if !ok {
			return
		}
		res, depth, err := p.runTrial(ctx, trial, s)
		p.finish(trial, res, depth, err)
	}
}

// claim returns the next trial to start, or false once every trial
// below the stop point has started, a trial has failed, or ctx is
// done. A trial that has not started when ctx dies is skipped; one in
// flight sees the cancellation inside its SWAP loop.
func (p *trialPool) claim(ctx context.Context) (int, bool) {
	if ctx.Err() != nil {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next >= p.stop || p.err != nil {
		return 0, false
	}
	p.next++
	return p.next - 1, true
}

// runTrial runs one trial behind the panic fence: a panic is recorded
// for the caller and reported as the trial's error.
func (p *trialPool) runTrial(ctx context.Context, trial int, s *Scratch) (res *Result, depth int, err error) {
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprintf("core: trial %d panic: %v\n%s", trial, r, debug.Stack())
			p.mu.Lock()
			if p.panicked == nil {
				p.panicked = msg
			}
			p.mu.Unlock()
			res, depth, err = nil, 0, fmt.Errorf("core: trial %d panicked", trial)
		}
	}()
	return p.fn(ctx, trial, s)
}

// finish records a trial's outcome and applies the patience rule to
// the completed prefix, in trial order. The rule cannot pass a failed
// trial, so it fires at or below it.
func (p *trialPool) finish(trial int, res *Result, depth int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		if p.err == nil || trial < p.failed {
			p.failed, p.err = trial, err
		}
		return
	}
	p.results[trial], p.depths[trial] = res, depth
	for p.patience > 0 && p.watched < p.stop && p.results[p.watched] != nil {
		t := p.watched
		p.watched++
		if t == 0 || BetterTrial(p.results[t], p.depths[t], t, p.results[p.best], p.depths[p.best], p.best) {
			p.best, p.sinceImp = t, 0
		} else if p.sinceImp++; p.sinceImp == p.patience {
			p.stop = t + 1
		}
	}
}
