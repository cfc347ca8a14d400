package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one layer call recorded by the traced replay.
type span struct {
	name   string
	req    int64 // request id, shared by all spans of one request
	parent int   // index of the enclosing span, -1 for a request root
	start  time.Duration
	end    time.Duration
	bytes  uint64 // heap bytes allocated while the span was open
	work   int64  // units processed, usually gates
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer records spans in memory; nothing is written until the run
// ends. A disabled tracer records nothing, which is how the untraced
// replay measures the tracer's own cost.
type tracer struct {
	on     bool
	t0     time.Time
	spans  []span
	sample []metrics.Sample
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span and returns its handle (-1 when disabled).
func (t *tracer) begin(name string, req int64, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, bytes: t.allocated(), start: time.Since(t.t0)})
	return len(t.spans) - 1
}

// end closes span i, recording work units processed.
func (t *tracer) end(i int, work int64) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.end = time.Since(t.t0)
	s.bytes = t.allocated() - s.bytes
	s.work = work
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, reach := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, reach), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerStat aggregates all spans of one name.
type layerStat struct {
	n     int
	dur   time.Duration
	self  time.Duration
	bytes uint64
	work  int64
}

func aggregate(spans []span) map[string]*layerStat {
	self := selfTimes(spans)
	out := map[string]*layerStat{}
	for i, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &layerStat{}
			out[s.name] = st
		}
		st.n++
		st.dur += s.dur()
		st.self += self[i]
		st.bytes += s.bytes
		st.work += s.work
	}
	return out
}

// writeChromeTrace writes spans in Chrome trace-event JSON (complete
// "X" events, microsecond times), which Perfetto and chrome://tracing
// open. Each request is its own track.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.req,
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: map[string]any{"req": s.req, "bytes": s.bytes, "work": s.work},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
