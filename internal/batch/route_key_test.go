package batch

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/verify"
	"repro/internal/workloads"
)

// TestRouteRoundTripsThroughCacheKey asserts the registry/cache-key
// contract: every registered router yields a distinct key on an
// otherwise identical job (no collisions), aliases and the implicit
// default collapse onto their canonical key (full sharing), and the
// key is stable across calls.
func TestRouteRoundTripsThroughCacheKey(t *testing.T) {
	base := Job{Circuit: workloads.GHZ(4), Device: arch.Line(5), Options: core.DefaultOptions()}

	seen := map[Key]string{}
	for _, name := range route.Names() {
		job := base
		job.Route = name
		key := KeyOf(job)
		if prev, dup := seen[key]; dup {
			t.Fatalf("router %q collides with %q in the cache key", name, prev)
		}
		seen[key] = name
		if again := KeyOf(job); again != key {
			t.Fatalf("router %q: key not stable across calls", name)
		}
	}

	// The implicit default and the spelled-out aliases share the
	// canonical entry.
	def := base
	sabre := base
	sabre.Route = "sabre"
	trialsAlias := base
	trialsAlias.Route = "trials"
	if KeyOf(def) != KeyOf(sabre) || KeyOf(def) != KeyOf(trialsAlias) {
		t.Fatal(`"", "sabre" and "trials" must share one cache entry`)
	}
	bka := base
	bka.Route = "bka"
	astar := base
	astar.Route = "astar"
	if KeyOf(bka) != KeyOf(astar) {
		t.Fatal(`"bka" and "astar" must share one cache entry`)
	}
}

// TestEngineRunsEveryRegisteredRouter drives one tiny job per backend
// through a shared engine: every result must be hardware-compliant,
// and none may be served from another backend's cache entry.
func TestEngineRunsEveryRegisteredRouter(t *testing.T) {
	eng := NewEngine(Config{Workers: 2})
	defer eng.Close()

	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(5)
	var names []string
	for _, name := range route.Names() {
		// The scripted fault routers (registered by other tests in this
		// package, and by sabred -fault-routes) panic by design; their
		// isolation has its own tests.
		if name == "panic" || name == trialPanicRoute {
			continue
		}
		names = append(names, name)
	}
	jobs := make([]Job, len(names))
	for i, name := range names {
		jobs[i] = Job{Circuit: circ, Device: dev, Route: name, Tag: name}
	}
	results := eng.CompileBatch(jobs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("%s: %v", names[i], res.Err)
		}
		if res.CacheHit {
			t.Fatalf("%s: cold compile served from cache (key collision?)", names[i])
		}
		if err := verify.HardwareCompliant(res.Final.DecomposeSwaps(), dev.Connected); err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
	}
	if st := eng.Stats(); st.Compiles != int64(len(names)) {
		t.Fatalf("compiles = %d, want %d", st.Compiles, len(names))
	}
}

func TestEngineRejectsUnknownRouter(t *testing.T) {
	eng := NewEngine(Config{Workers: 1})
	defer eng.Close()
	res := <-eng.Submit(Job{Circuit: workloads.GHZ(3), Device: arch.Line(3), Route: "warp-drive"})
	if res.Err == nil {
		t.Fatal("unknown router accepted")
	}
	if st := eng.Stats(); st.Compiles != 0 {
		t.Fatal("unknown router reached the compiler")
	}
}
