package main

import (
	"bytes"
	"testing"
)

// tinyConfig shrinks every size so the tests run in seconds.
func tinyConfig() config {
	return config{seconds: 0.4, rate: 25, hotSeeds: 1, largeCap: 13, streamGates: 2000,
		streamBodies: 2, streamCap: 200, hotCap: 5000, boots: 3}
}

func TestSeedDeterminesInputs(t *testing.T) {
	same := func(a, b []request) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].path != b[i].path || a[i].circuit != b[i].circuit || !bytes.Equal(a[i].body, b[i].body) {
				return false
			}
		}
		return true
	}
	for _, w := range workloadNames {
		a, err := generate(w, 7, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 7, tinyConfig())
		c, _ := generate(w, 8, tinyConfig())
		if !same(a.warm, b.warm) || !same(a.timed, b.timed) {
			t.Errorf("%s: seed 7 gave two different request lists", w)
		}
		if same(a.timed, c.timed) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", w)
		}
	}
}

func TestMissingWorkloadsUseFreshSeeds(t *testing.T) {
	for _, w := range []string{wInteractive, wLargeJobs, wStream} {
		in, err := generate(w, 3, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, r := range append(append([]request(nil), in.warm...), in.timed...) {
			if seen[r.path] {
				t.Errorf("%s: %s sent twice; it would hit the cache", w, r.path)
			}
			seen[r.path] = true
		}
	}
	in, _ := generate(wHotCache, 3, tinyConfig())
	if len(in.warm) != 13 {
		t.Errorf("hot_cache: %d keys, want one per small circuit", len(in.warm))
	}
	for _, r := range in.timed {
		if r.path != in.warm[r.key].path {
			t.Fatalf("hot_cache: timed request %s is not its key's warm request", r.path)
		}
	}
}
