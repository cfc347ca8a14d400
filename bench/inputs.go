package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/qasm"
	"repro/internal/workloads"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wInteractive = "interactive"
	wHotCache    = "hot_cache"
	wLargeJobs   = "large_jobs"
	wStream      = "stream"
)

var workloadNames = []string{wInteractive, wHotCache, wLargeJobs, wStream}

// passList is the post-routing pipeline a seeded third of interactive
// requests asks for: the only place the daemon runs pipeline passes.
const passList = "peephole,basis,verify"

// smallGateLimit splits Table II: the 13 circuits at or below it are
// interactive-sized, the 13 above it are the large arithmetic jobs.
const smallGateLimit = 1000

// streamQubits and streamCXFrac shape the random stream traces.
const (
	streamQubits = 18
	streamCXFrac = 0.55
)

// config holds the sizes a run uses. defaultConfig is what the
// benchmark measures; tests shrink it.
type config struct {
	seconds      float64 // timed phase length
	rate         float64 // interactive arrivals per second
	hotSeeds     int     // seeds per small circuit in the hot_cache set
	largeCap     int     // large_jobs requests generated (the phase ends early if all complete)
	streamGates  int     // gates per stream request
	streamBodies int     // distinct stream bodies, cycled with fresh seeds
	streamCap    int     // stream requests generated
	hotCap       int     // hot_cache timed requests generated
	boots        int     // daemon boots behind setup_s
}

func defaultConfig(seconds float64) config {
	return config{
		seconds:      seconds,
		rate:         150,
		hotSeeds:     16,
		largeCap:     13 * 60,
		streamGates:  50_000,
		streamBodies: 16,
		streamCap:    2000,
		hotCap:       200_000,
		boots:        21,
	}
}

// request is one pre-encoded HTTP request.
type request struct {
	circuit string // Table II name, or random<i> for stream bodies
	path    string // URL path and query
	seed    int64  // routing seed the path carries
	body    []byte // OpenQASM 2.0 source
	gates   int    // input gates
	passes  bool   // asks for the post-routing pipeline
	key     int    // hot_cache: index of the warm request whose cached result a hit reads
}

// inputs is everything one workload sends, generated from the seed
// before any timing starts.
type inputs struct {
	workload string
	warm     []request // sent before timing (hot_cache fills the cache with them)
	timed    []request // the timed phase consumes these in order
}

// suiteBodies encodes the Table II circuits on one side of
// smallGateLimit, in Table II order.
func suiteBodies(large bool) (names []string, bodies map[string][]byte, gates map[string]int) {
	bodies, gates = map[string][]byte{}, map[string]int{}
	for _, b := range workloads.All() {
		if (b.Gori > smallGateLimit) != large {
			continue
		}
		c := b.Build()
		names = append(names, b.Name)
		bodies[b.Name] = []byte(qasm.Format(c))
		gates[b.Name] = c.NumGates()
	}
	return names, bodies, gates
}

// seeder hands out distinct non-zero routing seeds, so every request
// that should miss the result cache does.
type seeder struct {
	rng  *rand.Rand
	used map[int64]bool
}

func (s *seeder) next() int64 {
	for {
		v := s.rng.Int63n(1<<40) + 1
		if !s.used[v] {
			s.used[v] = true
			return v
		}
	}
}

// cycle returns n names drawn as consecutive seeded permutations of
// names, so every prefix of whole blocks is balanced.
func cycle(rng *rand.Rand, names []string, n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(names)) {
			if len(out) == n {
				break
			}
			out = append(out, names[i])
		}
	}
	return out
}

// workloadSalt keeps the four workloads' random streams apart for one
// seed.
var workloadSalt = map[string]int64{wInteractive: 1, wHotCache: 2, wLargeJobs: 3, wStream: 4}

// generate builds a workload's requests from seed. The same seed gives
// the same bytes.
func generate(workload string, seed int64, cfg config) (*inputs, error) {
	salt, ok := workloadSalt[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	rng := rand.New(rand.NewSource(seed*16 + salt))
	seeds := &seeder{rng: rng, used: map[int64]bool{}}
	in := &inputs{workload: workload}
	mk := func(name string, path func(int64) string, body []byte, gates int, passes bool) request {
		seed := seeds.next()
		return request{circuit: name, path: path(seed), seed: seed, body: body, gates: gates, passes: passes}
	}
	compile := func(passes bool) func(int64) string {
		return func(seed int64) string { return compilePath(seed, passes) }
	}

	switch workload {
	case wInteractive:
		names, bodies, gates := suiteBodies(false)
		for _, n := range cycle(rng, names, len(names)) {
			in.warm = append(in.warm, mk(n, compile(false), bodies[n], gates[n], false))
		}
		total := int(cfg.rate * cfg.seconds)
		for _, n := range cycle(rng, names, total) {
			passes := rng.Intn(3) == 0
			in.timed = append(in.timed, mk(n, compile(passes), bodies[n], gates[n], passes))
		}

	case wHotCache:
		names, bodies, gates := suiteBodies(false)
		for _, n := range names {
			for k := 0; k < cfg.hotSeeds; k++ {
				r := mk(n, compile(false), bodies[n], gates[n], false)
				r.key = len(in.warm)
				in.warm = append(in.warm, r)
			}
		}
		for len(in.timed) < cfg.hotCap {
			for _, i := range rng.Perm(len(in.warm)) {
				in.timed = append(in.timed, in.warm[i])
			}
		}
		in.timed = in.timed[:cfg.hotCap]

	case wLargeJobs:
		names, bodies, gates := suiteBodies(true)
		// Warm-up: one small job per client, so the first timed jobs do
		// not pay for lazy daemon set-up.
		_, small, smallGates := suiteBodies(false)
		for i := 0; i < 2; i++ {
			n := "qft_10"
			in.warm = append(in.warm, mk(n, jobsPath, small[n], smallGates[n], false))
		}
		for _, n := range cycle(rng, names, cfg.largeCap) {
			in.timed = append(in.timed, mk(n, jobsPath, bodies[n], gates[n], false))
		}

	case wStream:
		bodies := make([][]byte, cfg.streamBodies)
		for i := range bodies {
			var buf bytes.Buffer
			if err := workloads.WriteRandomQASM(&buf, streamQubits, cfg.streamGates, streamCXFrac, rng.Int63()); err != nil {
				return nil, err
			}
			bodies[i] = buf.Bytes()
		}
		in.warm = append(in.warm, mk("random0", streamPath, bodies[0], cfg.streamGates, false))
		for i := 0; i < cfg.streamCap; i++ {
			in.timed = append(in.timed, mk(fmt.Sprintf("random%d", i%len(bodies)), streamPath, bodies[i%len(bodies)], cfg.streamGates, false))
		}
	}
	return in, nil
}

func compilePath(seed int64, passes bool) string {
	p := fmt.Sprintf("/compile?device=tokyo&seed=%d", seed)
	if passes {
		p += "&passes=" + passList
	}
	return p
}

func jobsPath(seed int64) string { return fmt.Sprintf("/jobs?device=tokyo&seed=%d", seed) }

func streamPath(seed int64) string {
	return fmt.Sprintf("/compile?stream=1&device=tokyo&seed=%d", seed)
}
