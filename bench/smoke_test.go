package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkMetrics reads the metric names BENCHMARK.json defines.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	for _, m := range def.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range def.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func checkReported(t *testing.T, r *result, want []string) {
	t.Helper()
	var got []string
	for n := range r.Metrics {
		got = append(got, n)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("reported %v, BENCHMARK.json lists %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reported %v, BENCHMARK.json lists %v", got, want)
		}
	}
	if r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Failures)
	}
}

// TestSmokeAllWorkloads runs every workload at tiny scale against a
// real sabred built from this repository, in both modes, and checks
// that each reports exactly the metrics BENCHMARK.json defines with
// every output verified.
func TestSmokeAllWorkloads(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	tmp := t.TempDir()
	bin, err := buildSabred("..", tmp)
	if err != nil {
		t.Fatal(err)
	}
	tiny := replayPlan{chain: 3, http: 2, engine: 2, hits: 4, jobs: 2, stream: 2}
	e := &env{tmp: tmp, sabred: bin, cfg: tinyConfig(), plans: map[string]replayPlan{
		wInteractive: tiny, wHotCache: tiny, wLargeJobs: tiny, wStream: tiny,
	}}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			r, err := runE2E(e, w, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkReported(t, r, endToEnd)
			r, err = runTrace(e, w, 1, "")
			if err != nil {
				t.Fatal(err)
			}
			checkReported(t, r, perLayer)
		})
	}
}
