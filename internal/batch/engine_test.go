package batch

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/qasm"
	"repro/internal/verify"
	"repro/internal/workloads"
)

// testJobs returns a small mixed workload: several circuits, two
// devices, all with Seed left at zero so the engine derives seeds.
func testJobs() []Job {
	tokyo := arch.IBMQ20Tokyo()
	line := arch.Line(8)
	return []Job{
		{Circuit: workloads.GHZ(6), Device: tokyo, Tag: "ghz6"},
		{Circuit: workloads.QFT(6), Device: tokyo, Tag: "qft6"},
		{Circuit: workloads.QFT(5), Device: line, Tag: "qft5-line"},
		{Circuit: workloads.Ising(6, 2), Device: tokyo, Tag: "ising6"},
		{Circuit: workloads.RandomCircuit("rnd", 7, 60, 0.5, 11), Device: tokyo, Tag: "rnd7"},
	}
}

func TestCompileBatchOrderAndCompliance(t *testing.T) {
	e := NewEngine(Config{Workers: 4})
	defer e.Close()
	jobs := testJobs()
	results := e.CompileBatch(jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d (%s): %v", i, jobs[i].Tag, res.Err)
		}
		if res.Tag != jobs[i].Tag {
			t.Fatalf("job %d: tag %q, want %q (results out of order)", i, res.Tag, jobs[i].Tag)
		}
		if err := verify.HardwareCompliant(res.Circuit.DecomposeSwaps(), jobs[i].Device.Connected); err != nil {
			t.Fatalf("job %d (%s): non-compliant output: %v", i, jobs[i].Tag, err)
		}
	}

	// Exact GF(2) equivalence needs a CX-only circuit.
	linear := circuit.NewNamed("cnot-chain", 6)
	for i := 0; i < 5; i++ {
		linear.Append(circuit.CX(i, i+1), circuit.CX((i+2)%6, i))
	}
	res := e.CompileBatch([]Job{{Circuit: linear, Device: arch.IBMQ20Tokyo()}})[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := verify.CheckRouted(linear, res.Circuit, res.InitialLayout, res.FinalLayout); err != nil {
		t.Fatalf("routed CX circuit not equivalent: %v", err)
	}
}

func TestCacheHitReturnsIdenticalResult(t *testing.T) {
	e := NewEngine(Config{Workers: 2})
	defer e.Close()
	job := Job{Circuit: workloads.QFT(6), Device: arch.IBMQ20Tokyo()}

	first := e.CompileBatch([]Job{job})[0]
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.CacheHit {
		t.Fatal("first compile reported a cache hit")
	}
	second := e.CompileBatch([]Job{job})[0]
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !second.CacheHit {
		t.Fatal("second compile missed the cache")
	}
	if first.Result != second.Result {
		t.Fatal("cache hit returned a different *core.Result")
	}
	if first.Key != second.Key {
		t.Fatalf("key changed between submissions: %x vs %x", first.Key, second.Key)
	}
}

// TestKeptProgram: the first write of a result keeps nothing; the
// second keeps, on the outcome every holder shares, an exact-size copy
// of the offered encoding that does not alias the offered buffer.
func TestKeptProgram(t *testing.T) {
	e := NewEngine(Config{Workers: 2})
	defer e.Close()
	job := Job{Circuit: workloads.QFT(6), Device: arch.IBMQ20Tokyo()}

	first := e.CompileBatch([]Job{job})[0]
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	want := qasm.AppendJSON(nil, first.Final)
	if first.WroteProgram(qasm.AppendJSON(nil, first.Final)) || first.KeptProgram() != nil {
		t.Fatal("the first write kept the program")
	}
	second := e.CompileBatch([]Job{job})[0]
	if !second.CacheHit || second.KeptProgram() != nil {
		t.Fatalf("second compile: cache hit %v, kept %d bytes before its write", second.CacheHit, len(second.KeptProgram()))
	}
	offered := qasm.AppendJSON(nil, second.Final)
	if !second.WroteProgram(offered) {
		t.Fatal("the second write kept nothing")
	}
	for i := range offered {
		offered[i] = 'x'
	}
	for _, r := range []Result{first, second} {
		kept := r.KeptProgram()
		if !bytes.Equal(kept, want) || cap(kept) != len(kept) {
			t.Fatalf("kept %d bytes (cap %d), want an exact-size copy of qasm.AppendJSON's %d", len(kept), cap(kept), len(want))
		}
	}
	if second.WroteProgram(want) {
		t.Fatal("a third write replaced the kept program")
	}
	if failed := (Result{Err: errNilJob}); failed.WroteProgram(want) || failed.WroteProgram(want) || failed.KeptProgram() != nil {
		t.Fatal("a failed result kept a program")
	}
}

// TestKeptProgramConcurrent: holders of one outcome that write and
// read its program at once keep exactly one copy, and every reader sees
// qasm.AppendJSON's bytes. Run with -race.
func TestKeptProgramConcurrent(t *testing.T) {
	e := NewEngine(Config{Workers: 4})
	defer e.Close()
	job := Job{Circuit: workloads.QFT(6), Device: arch.IBMQ20Tokyo()}
	want := qasm.AppendJSON(nil, e.CompileBatch([]Job{job})[0].Final)

	var kept atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res := <-e.Submit(job)
				if p := res.KeptProgram(); p != nil {
					if !bytes.Equal(p, want) {
						t.Error("a reader saw other bytes than qasm.AppendJSON's")
						return
					}
					continue
				}
				if res.WroteProgram(qasm.AppendJSON(nil, res.Final)) {
					kept.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := kept.Load(); n != 1 {
		t.Fatalf("%d writes kept the program, want 1", n)
	}
}

// TestOverlappingBatches hammers one engine from many goroutines with
// shuffled copies of the same job list and asserts exact bookkeeping:
// every unique job compiles exactly once, everything else is served by
// the cache or joins the in-flight compile, and all results for a key
// are the very same shared *core.Result. Run with -race.
func TestOverlappingBatches(t *testing.T) {
	e := NewEngine(Config{Workers: 4})
	defer e.Close()
	jobs := testJobs()
	const goroutines = 8

	var mu sync.Mutex
	byKey := make(map[Key][]*core.Result)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			shuffled := append([]Job(nil), jobs...)
			rng := rand.New(rand.NewSource(seed))
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, res := range e.CompileBatch(shuffled) {
				if res.Err != nil {
					t.Errorf("batch job %s: %v", res.Tag, res.Err)
					return
				}
				mu.Lock()
				byKey[res.Key] = append(byKey[res.Key], res.Result)
				mu.Unlock()
			}
		}(int64(g))
	}
	wg.Wait()

	if len(byKey) != len(jobs) {
		t.Fatalf("saw %d unique keys, want %d", len(byKey), len(jobs))
	}
	for key, results := range byKey {
		if len(results) != goroutines {
			t.Fatalf("key %x: %d results, want %d", key[:4], len(results), goroutines)
		}
		for _, r := range results[1:] {
			if r != results[0] {
				t.Fatalf("key %x: results not shared (distinct pointers)", key[:4])
			}
		}
	}

	stats := e.Stats()
	total := int64(goroutines * len(jobs))
	if stats.Jobs != total {
		t.Fatalf("stats.Jobs = %d, want %d", stats.Jobs, total)
	}
	if stats.Compiles != int64(len(jobs)) {
		t.Fatalf("stats.Compiles = %d, want %d (each unique job compiles once)", stats.Compiles, len(jobs))
	}
	if stats.Hits+stats.Shared != total-int64(len(jobs)) {
		t.Fatalf("hits(%d)+shared(%d) != %d", stats.Hits, stats.Shared, total-int64(len(jobs)))
	}
	if stats.Errors != 0 {
		t.Fatalf("stats.Errors = %d", stats.Errors)
	}
}

// TestDeterminism asserts the reproducibility contract: the same batch
// compiled by engines with different worker counts, in different job
// orders, yields byte-identical routed QASM per job.
func TestDeterminism(t *testing.T) {
	jobs := testJobs()

	qasmOf := func(e *Engine, js []Job) map[string]string {
		out := make(map[string]string)
		for _, res := range e.CompileBatch(js) {
			if res.Err != nil {
				t.Fatalf("%s: %v", res.Tag, res.Err)
			}
			out[res.Tag] = qasm.Format(res.Circuit)
		}
		return out
	}

	serial := NewEngine(Config{Workers: 1, CacheEntries: -1})
	defer serial.Close()
	parallel := NewEngine(Config{Workers: 8, CacheEntries: -1})
	defer parallel.Close()

	want := qasmOf(serial, jobs)

	reversed := make([]Job, len(jobs))
	for i, j := range jobs {
		reversed[len(jobs)-1-i] = j
	}
	got := qasmOf(parallel, reversed)

	for tag, w := range want {
		if got[tag] != w {
			t.Fatalf("%s: routed QASM differs between 1-worker in-order and 8-worker reversed-order runs", tag)
		}
	}

	// Same engine, same batch again (cache disabled, so this re-runs
	// the full search): still byte-identical.
	again := qasmOf(parallel, jobs)
	for tag, w := range want {
		if again[tag] != w {
			t.Fatalf("%s: routed QASM differs between repeated runs", tag)
		}
	}
}

// TestBaseSeedChangesDerivedSeeds checks that BaseSeed feeds the
// derived seed (the search may or may not find a different result, so
// only the seed derivation itself is asserted) and that explicit seeds
// are left alone.
func TestBaseSeedChangesDerivedSeeds(t *testing.T) {
	job := Job{Circuit: workloads.QFT(6), Device: arch.IBMQ20Tokyo()}
	key := KeyOf(job)

	a := deriveSeed(key, 1, job.Options)
	b := deriveSeed(key, 2, job.Options)
	if a.Seed == 0 || b.Seed == 0 {
		t.Fatal("derived seed is zero")
	}
	if a.Seed == b.Seed {
		t.Fatalf("base seeds 1 and 2 derived the same job seed %d", a.Seed)
	}
	if again := deriveSeed(key, 1, job.Options); again.Seed != a.Seed {
		t.Fatal("seed derivation is not deterministic")
	}

	explicit := job.Options
	explicit.Seed = 42
	if got := deriveSeed(key, 7, explicit); got.Seed != 42 {
		t.Fatalf("explicit seed overridden: %d", got.Seed)
	}
}

func TestKeyCanonicalization(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	base := Job{Circuit: workloads.QFT(6), Device: dev, Options: core.DefaultOptions()}
	key := KeyOf(base)

	if KeyOf(base) != key {
		t.Fatal("KeyOf is not stable")
	}

	// Tag and circuit name are metadata, not identity.
	tagged := base
	tagged.Tag = "other"
	named := base
	named.Circuit = base.Circuit.Clone()
	named.Circuit.SetName("renamed")
	if KeyOf(tagged) != key || KeyOf(named) != key {
		t.Fatal("metadata leaked into the cache key")
	}

	// Anything result-affecting must change the key.
	variants := []Job{
		{Circuit: workloads.QFT(7), Device: dev, Options: base.Options},
		{Circuit: base.Circuit, Device: arch.Line(20), Options: base.Options},
	}
	seedled := base
	seedled.Options.Seed = 99
	variants = append(variants, seedled)
	bridged := base
	bridged.Options.UseBridge = true
	variants = append(variants, bridged)
	noisy := base
	noisy.Options.Noise = arch.UniformNoise(0.01)
	variants = append(variants, noisy)
	for i, v := range variants {
		if KeyOf(v) == key {
			t.Fatalf("variant %d did not change the key", i)
		}
	}

	// Noise models hash their (sorted) edge maps, not pointer identity.
	n1 := base
	n1.Options.Noise = &arch.NoiseModel{Default: 0.01, EdgeError: map[arch.Edge]float64{arch.NewEdge(0, 1): 0.2}}
	n2 := base
	n2.Options.Noise = &arch.NoiseModel{Default: 0.01, EdgeError: map[arch.Edge]float64{arch.NewEdge(0, 1): 0.2}}
	if KeyOf(n1) != KeyOf(n2) {
		t.Fatal("equal noise models hashed differently")
	}
	n2.Options.Noise.EdgeError[arch.NewEdge(1, 6)] = 0.3
	if KeyOf(n1) == KeyOf(n2) {
		t.Fatal("different noise models share a key")
	}
}

// TestZeroOptionsMeansPaperDefaults pins the Job contract: an all-zero
// Options compiles with the paper's defaults (decay heuristic, 5
// trials), not with core's literal zero values (HeuristicBasic, zero
// decay) — so it must share a cache entry with explicitly-default
// options whose seed is left for derivation.
func TestZeroOptionsMeansPaperDefaults(t *testing.T) {
	e := NewEngine(Config{Workers: 2})
	defer e.Close()
	circ, dev := workloads.QFT(6), arch.IBMQ20Tokyo()

	zero := e.CompileBatch([]Job{{Circuit: circ, Device: dev}})[0]
	if zero.Err != nil {
		t.Fatal(zero.Err)
	}
	explicit := core.DefaultOptions()
	explicit.Seed = 0
	def := e.CompileBatch([]Job{{Circuit: circ, Device: dev, Options: explicit}})[0]
	if def.Err != nil {
		t.Fatal(def.Err)
	}
	if !def.CacheHit || def.Result != zero.Result {
		t.Fatal("zero Options did not normalize to the paper defaults")
	}

	// A deliberately-basic heuristic is a different job.
	basic := explicit
	basic.Heuristic = core.HeuristicBasic
	if res := e.CompileBatch([]Job{{Circuit: circ, Device: dev, Options: basic}})[0]; res.CacheHit {
		t.Fatal("explicit HeuristicBasic shared the defaults' cache entry")
	}
}

func TestSubmitAsync(t *testing.T) {
	e := NewEngine(Config{Workers: 2})
	defer e.Close()
	dev := arch.IBMQ20Tokyo()
	chans := []<-chan Result{
		e.Submit(Job{Circuit: workloads.GHZ(5), Device: dev, Tag: "a"}),
		e.Submit(Job{Circuit: workloads.QFT(5), Device: dev, Tag: "b"}),
	}
	for _, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Tag, res.Err)
		}
		if res.Circuit == nil {
			t.Fatalf("%s: nil circuit", res.Tag)
		}
	}
}

func TestJobErrors(t *testing.T) {
	e := NewEngine(Config{Workers: 2})
	defer e.Close()

	// A circuit wider than the device fails cleanly and is not cached.
	big := Job{Circuit: workloads.QFT(10), Device: arch.Line(4)}
	for i := 0; i < 2; i++ {
		res := e.CompileBatch([]Job{big})[0]
		if res.Err == nil {
			t.Fatal("oversized circuit compiled")
		}
		if res.CacheHit {
			t.Fatal("error result served from cache")
		}
	}
	if got := e.Stats().Errors; got != 2 {
		t.Fatalf("stats.Errors = %d, want 2", got)
	}
	if got := e.Stats().Cached; got != 0 {
		t.Fatalf("error result cached (%d entries)", got)
	}

	res := e.CompileBatch([]Job{{Device: arch.Line(4)}})[0]
	if !errors.Is(res.Err, errNilJob) {
		t.Fatalf("nil circuit: err = %v", res.Err)
	}
}

func TestClosedEngine(t *testing.T) {
	e := NewEngine(Config{Workers: 2})
	job := Job{Circuit: workloads.GHZ(4), Device: arch.Line(4)}
	if res := e.CompileBatch([]Job{job})[0]; res.Err != nil {
		t.Fatal(res.Err)
	}
	e.Close()
	e.Close() // idempotent
	res := e.CompileBatch([]Job{job})[0]
	if !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("after Close: err = %v, want ErrClosed", res.Err)
	}
}

func TestFingerprint(t *testing.T) {
	a := workloads.QFT(6)
	if Fingerprint(a) != Fingerprint(workloads.QFT(6)) {
		t.Fatal("identical circuits fingerprint differently")
	}
	if Fingerprint(a) == Fingerprint(workloads.QFT(7)) {
		t.Fatal("different circuits share a fingerprint")
	}
	b := a.Clone()
	b.Append(circuit.CX(0, 1))
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("appending a gate kept the fingerprint")
	}
}
