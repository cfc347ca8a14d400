package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) (map[string]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range def.EndToEnd {
		out[m.Name] = m
	}
	return out, nil
}

// loadRuns reads -out files and groups their values by workload and
// metric.
func loadRuns(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rs []*result
		if err := json.Unmarshal(b, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range rs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for n, m := range r.Metrics {
				out[r.Workload][n] = append(out[r.Workload][n], m.Value)
			}
		}
	}
	return out, nil
}

// verdict applies the no-regression rule: worse when the candidate's
// median is worse than the baseline's by more than the bound;
// unresolved when the baseline's own quartile spread exceeds the bound,
// unless every candidate run reads better than every baseline run.
func verdict(a, b []float64, bd bound) string {
	lower := bd.Better == "lower"
	better := func(x, y float64) bool { return (lower && x < y) || (!lower && x > y) }
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	worse := (mb - ma) / math.Abs(ma)
	if !lower {
		worse = -worse
	}
	switch {
	case allBetter:
		return "ok"
	case (q3-q1)/math.Abs(ma) > bd.Bound:
		return "unresolved"
	case worse > bd.Bound:
		return "worse"
	}
	return "ok"
}

// compareMain prints every workload × end-to-end metric with each
// side's median and quartiles and a verdict; it returns 1 if any
// verdict is worse.
func compareMain(w io.Writer, boundsPath string, aPaths, bPaths []string) int {
	bounds, err := loadBounds(boundsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	a, err := loadRuns(aPaths)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadRuns(bPaths); err == nil {
			return printComparison(w, bounds, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func printComparison(w io.Writer, bounds map[string]bound, a, b map[string]map[string][]float64) int {
	workloads := make([]string, 0, len(a))
	for wl := range a {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	names := make([]string, 0, len(bounds))
	for n := range bounds {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %-16s %12s %25s %12s %25s %7s %s\n", "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "bound", "verdict")
	status := 0
	for _, wl := range workloads {
		for _, n := range names {
			av, bv := a[wl][n], b[wl][n]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			bd := bounds[n]
			v := verdict(av, bv, bd)
			if v == "worse" {
				status = 1
			}
			aq1, aq3 := quartiles(av)
			bq1, bq3 := quartiles(bv)
			fmt.Fprintf(w, "%-12s %-16s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g %7.3g %s (n=%d,%d)\n",
				wl, n, median(av), aq1, aq3, median(bv), bq1, bq3, bd.Bound, v, len(av), len(bv))
		}
	}
	return status
}
