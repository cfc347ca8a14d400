package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{name: "request", parent: -1, start: ms(0), end: ms(100)},
		{name: "a", parent: 0, start: ms(10), end: ms(40)},
		{name: "b", parent: 0, start: ms(30), end: ms(60)}, // overlaps a by 10
		{name: "c", parent: 1, start: ms(20), end: ms(25)},
		{name: "d", parent: 0, start: ms(90), end: ms(120)}, // runs past its parent
		{name: "other", parent: -1, start: ms(0), end: ms(7)},
	}
	want := []time.Duration{ms(100 - 50 - 10), ms(30 - 5), ms(30), ms(5), ms(30), ms(7)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
	st := aggregate(spans)
	if st["request"].self != ms(40) || st["a"].dur != ms(30) || st["a"].n != 1 {
		t.Errorf("aggregate: request self %v, a dur %v n %d", st["request"].self, st["a"].dur, st["a"].n)
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	i := tr.begin("x", 1, -1)
	tr.end(i, 10)
	if len(tr.spans) != 0 || i != -1 {
		t.Fatalf("disabled tracer recorded %d spans", len(tr.spans))
	}
	on := newTracer(true)
	root := on.begin("request", 1, -1)
	child := on.begin("qasm.parse", 1, root)
	_ = make([]byte, 1<<20)
	on.end(child, 5)
	on.end(root, 5)
	if len(on.spans) != 2 || on.spans[1].parent != 0 || on.spans[1].work != 5 {
		t.Fatalf("spans %+v", on.spans)
	}
	if on.spans[1].bytes < 1<<20 {
		t.Errorf("child span saw %d allocated bytes, want at least 1 MiB", on.spans[1].bytes)
	}
}
