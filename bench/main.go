// Command bench is the repository's end-to-end benchmark. It builds
// cmd/sabred, boots it on loopback, drives one of four workloads at it
// over HTTP with at most two connections, verifies every response
// without trusting the compiler, and prints each metric by name with
// its unit and sample count. With -trace 1 it instead replays a fixed
// prefix of the workload in-process, calling each layer's public entry
// point under a span, and prints the per-layer metrics.
//
// Run it from the repository root through the wrapper, which keeps
// Go's caches inside the repository:
//
//	bash bench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 1 --out r.json --trace 1 --trace-out t.json
//	bash bench/run.sh -compare a1.json,a2.json,a3.json b1.json,b2.json,b3.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// See bench/README.md for the workloads, metrics and bounds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(realMain()) }

// header describes the host and build a result was measured on.
type header struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func makeHeader(root string, seed int64, seconds float64) header {
	h := header{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Seed: seed, Seconds: seconds}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// A checkout that is not a git repository reports "unknown": the
	// ceiling stops git from finding a repository above it.
	git := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	if abs, err := filepath.Abs(root); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	}
	if out, err := git.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 20, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 replays the workload in-process under spans and reports per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON here")
		out      = flag.String("out", "", "write the full results (header, phases, metrics, notes) as JSON here")
		root     = flag.String("root", ".", "repository root holding cmd/sabred")
		compare  = flag.String("compare", "", "comma-separated baseline result files; the first argument lists the candidate's")
		bounds   = flag.String("bounds", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds, for -compare")
	)
	flag.Parse()
	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "bench: -compare A1.json,A2.json,... needs B1.json,B2.json,... as its argument")
			return 2
		}
		return compareMain(os.Stdout, *bounds, strings.Split(*compare, ","), strings.Split(flag.Arg(0), ","))
	}
	names := workloadNames
	if *workload != "all" {
		if _, ok := workloadSalt[*workload]; !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}

	tmp, err := os.MkdirTemp("", "sabrebench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	results, err := runAll(*root, tmp, names, *seed, *seconds, *trace == 1, *traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if *out != "" {
		b, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", *out, err)
			return 1
		}
	}
	line, failed, err := summary(results)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: result line: %v\n", err)
		return 1
	}
	fmt.Println(line)
	if failed {
		return 1
	}
	return 0
}

// runAll builds the daemon and runs each named workload.
func runAll(root, tmp string, names []string, seed int64, seconds float64, trace bool, traceOut string) ([]*result, error) {
	sabred, err := buildSabred(root, tmp)
	if err != nil {
		return nil, err
	}
	e := &env{tmp: tmp, sabred: sabred, cfg: defaultConfig(seconds), plans: defaultPlans}
	hdr := makeHeader(root, seed, seconds)
	printHeader(hdr)
	var results []*result
	for _, w := range names {
		var r *result
		if trace {
			path := traceOut
			if path != "" && len(names) > 1 {
				path = strings.TrimSuffix(path, ".json") + "." + w + ".json"
			}
			r, err = runTrace(e, w, seed, path)
		} else {
			r, err = runE2E(e, w, seed)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
		r.Header = hdr
		printResult(r)
		results = append(results, r)
	}
	return results, nil
}

func printHeader(h header) {
	fmt.Printf("# cpu %s, nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, %gs timed\n",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Seed, h.Seconds)
}

// printResult prints one line per metric as "workload metric value unit
// (n=…)", then the phases, notes and failures as comments.
func printResult(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%s %s %v %s (n=%d)\n", r.Workload, n, m.Value, m.Unit, m.N)
	}
	phases := make([]string, 0, len(r.Phases))
	for p := range r.Phases {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	for _, p := range phases {
		fmt.Printf("# %s phase %s %.3fs\n", r.Workload, p, r.Phases[p])
	}
	for _, n := range r.Notes {
		fmt.Printf("# %s %s\n", r.Workload, n)
	}
	fmt.Printf("# %s attempted %d failed %d\n", r.Workload, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Printf("# %s FAILED %s\n", r.Workload, f)
	}
}

// summary renders the final stdout line. With several workloads the
// metric names are prefixed by the workload.
func summary(results []*result) (string, bool, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, r := range results {
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for n, m := range r.Metrics {
			if len(results) > 1 {
				n = r.Workload + "/" + n
			}
			sum.Metrics[n] = value{m.Value, m.Unit}
		}
	}
	sum.Correct = sum.Failed == 0
	// Marshal fails only on a NaN or Inf metric, a benchmark bug.
	b, err := json.Marshal(sum)
	return string(b), !sum.Correct, err
}
