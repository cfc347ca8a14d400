package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/mapping"
)

// Streaming compilation: route an unbounded gate stream with memory
// O(device + window), independent of circuit length.
//
// The materialized pipeline (Compile and friends) builds the whole
// circuit and its dependency table before the first SWAP is chosen,
// so peak memory scales with gate count. But Algorithm 1 itself only
// ever consults a bounded neighborhood of the execution frontier: the
// front layer F, the extended set E, and the decay state — all
// device-sized. The streaming mode below exploits that: gates are
// admitted from a GateSource one at a time into a slot-arena window
// (ringDeps), dependencies are tracked with per-qubit chains instead
// of a precomputed table, and routed gates leave through a StreamSink
// in bounded chunks. The SWAP loop itself is the router's, unchanged:
// drain, extended set, scoring round, bridge, forced route and decay
// all run over the window's handles exactly as they run over a
// materialized circuit's gate indices, so streaming inherits every
// scoring property (and its zero-alloc guarantee) without duplicating
// it. streamRouter adds only what streaming needs: admission and
// refill from the source, chunk flushes to the sink, and StreamStats.
//
// Streaming semantics are pinned, deterministic, and intentionally
// simpler than Compile's default search: one trial, one forward
// traversal, seeded random initial layout (the layout trial 0 of
// Compile would draw). Multi-trial restart search is meaningless when
// the input cannot be replayed. Consequently the parity contract is
// between the two *streaming* paths: RouteStream (windowed, O(window)
// memory) and RouteStreamMaterialized (same pinned semantics executed
// over a fully materialized circuit and its dependency table) emit
// byte-identical gate streams for every circuit, seed, and worker
// count. The two share the loop and the shape of its dependency table
// but not how the table is filled — slot arena + qubit chains vs. the
// circuit's precomputed table with an admission bound — which makes
// each the independent oracle for the other.
//
// Window admission policy (identical in both paths, so it is part of
// the pinned semantics): after every drain the router tops the window
// up until the lookahead beyond the front layer holds ExtendedSetSize
// two-qubit gates — exactly what one scoring round can consume — or
// StreamOptions.Lookahead gates are pending behind the front,
// whichever comes first. The second bound caps the window on streams
// of blocked single-qubit gates, which never count toward the first.
// Window occupancy is therefore O(|F| + Lookahead), and |F| ≤ n/2
// (front gates are vertex-disjoint), giving the O(device + window)
// bound regardless of stream length.

// GateSource is the pull side of a gate stream: Next returns the next
// gate and ok=true, ok=false at end of stream, or a terminal error.
// qasm.GateScanner satisfies it structurally; NewCircuitSource adapts
// an in-memory circuit.
type GateSource interface {
	Next() (g circuit.Gate, ok bool, err error)
}

// StreamSink receives routed physical gates in chunks. Emit is called
// with a reused buffer: implementations that retain gates past the
// call must copy. A non-nil error aborts the stream and is returned
// from RouteStream.
type StreamSink interface {
	Emit(gates []circuit.Gate) error
}

// StreamOptions tunes the streaming mode. The zero value means
// defaults (see DefaultStreamOptions). ChunkGates only changes
// emission granularity; Lookahead bounds the admission window and is
// part of the deterministic semantics. The slot arena needs no sizing:
// it starts at 64 slots and doubles on demand up to the live window's
// high-water mark.
type StreamOptions struct {
	// Lookahead caps the gates admitted beyond the front layer. It is
	// the streaming analogue of the extended-set size and the only
	// StreamOptions field that changes routing decisions: a larger
	// window can surface later two-qubit gates to the lookahead
	// heuristic. Default 256.
	Lookahead int

	// ChunkGates is the emission granularity: the output buffer is
	// flushed to the sink once it holds at least this many gates.
	ChunkGates int
}

// DefaultStreamOptions returns the streaming defaults: 256-gate
// lookahead, 1024-gate chunks.
func DefaultStreamOptions() StreamOptions {
	return StreamOptions{Lookahead: 256, ChunkGates: 1024}
}

// normalized fills zero fields with defaults.
func (o StreamOptions) normalized() StreamOptions {
	d := DefaultStreamOptions()
	if o.Lookahead <= 0 {
		o.Lookahead = d.Lookahead
	}
	if o.ChunkGates <= 0 {
		o.ChunkGates = d.ChunkGates
	}
	return o
}

// StreamStats instruments one streaming traversal. The JSON names are
// the daemon API's snake_case, for callers that serialize the struct;
// the daemon itself reports these figures as the X-Sabre-* trailers
// of POST /compile?stream=1.
type StreamStats struct {
	GatesIn  int64 `json:"gates_in"`  // gates admitted from the source
	GatesOut int64 `json:"gates_out"` // gates emitted to the sink

	SwapCount    int `json:"swaps"`
	BridgeCount  int `json:"bridges"`
	AddedGates   int `json:"added_gates"` // 3 per SWAP and per bridge, like Result
	SwapRounds   int `json:"swap_rounds"`
	ForcedRoutes int `json:"forced_routes"`

	// MaxFront and MaxWindow are the high-water front-layer size and
	// live-window occupancy; WindowBytes the arena's final footprint
	// (0 on the materialized path, which has no arena). Flat
	// MaxWindow/WindowBytes across a 10× longer stream is the
	// O(device + window) memory claim, measured.
	MaxFront    int   `json:"max_front"`
	MaxWindow   int   `json:"max_window"`
	WindowBytes int64 `json:"window_bytes"`

	Chunks      int           `json:"chunks"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	GatesPerSec float64       `json:"gates_per_sec"` // GatesOut / Elapsed
}

// StreamResult is the summary of a completed streaming compilation.
// The routed gates themselves went to the sink.
type StreamResult struct {
	InitialLayout []int
	FinalLayout   []int
	NumQubits     int
	Stats         StreamStats
}

// streamDeps is what differs between the dependency stores the
// streaming driver admits into, the windowed slot arena (ringDeps) and
// a materialized circuit (dagDeps): both fill the router's one
// dependency table, which the loop reads directly.
type streamDeps interface {
	// admit enters g, the next gate of the stream, and reports its
	// handle and whether it is dependency-free.
	admit(g circuit.Gate) (h int, ready bool)
	// seq returns h's admission sequence number: its position in
	// program order.
	seq(h int) int64
}

// ringDeps is the windowed dependency store: a free-list slot arena
// plus per-qubit chain tails, all living in the streamScratch. See the
// streamScratch doc for the recycling and stale-tail invariants. A
// slot's gid is its gate's admission sequence number.
type ringDeps struct {
	r       *router // whose gate, pair, dependency and mark tables alias the arena
	z       *streamScratch
	nextGid int64
}

//sabre:hotpath
func (d *ringDeps) admit(g circuit.Gate) (int, bool) {
	z := d.z
	if len(z.free) == 0 {
		d.grow()
	}
	s := z.free[len(z.free)-1]
	z.free = z.free[:len(z.free)-1]
	gid := d.nextGid
	d.nextGid++
	i2 := 2 * int(s)
	z.slotGate[s] = g
	z.slotGid[s] = gid
	if g.TwoQubit() {
		z.slotQ2[i2] = int32(g.Q0)
		z.slotQ2[i2+1] = int32(g.Q1)
	} else {
		z.slotQ2[i2] = -1
		z.slotQ2[i2+1] = -1
	}
	z.slotInDeg[s] = 0
	z.slotSucc[i2] = -1
	z.slotSucc[i2+1] = -1
	d.link(g.Q0, s)
	if g.TwoQubit() {
		d.link(g.Q1, s)
	}
	z.chainTailSlot[g.Q0] = s
	z.chainTailGid[g.Q0] = gid
	if g.TwoQubit() {
		z.chainTailSlot[g.Q1] = s
		z.chainTailGid[g.Q1] = gid
	}
	return int(s), z.slotInDeg[s] == 0
}

// link adds the dependency edge chainTail[w] → s, if that tail is
// still live (gid match; a recycled slot fails it and means the chain
// head already executed). A tail's successors fill its two entries in
// link order, which is admission order.
//
//sabre:hotpath
func (d *ringDeps) link(w int, s int32) {
	z := d.z
	t := z.chainTailSlot[w]
	if t < 0 || z.slotGid[t] != z.chainTailGid[w] {
		return
	}
	z.slotInDeg[s]++
	if z.slotSucc[2*t] < 0 {
		z.slotSucc[2*t] = s
	} else {
		z.slotSucc[2*t+1] = s
	}
}

// grow doubles the arena (from 64 slots) and re-points the router's
// gate, pair, dependency and mark tables at it. Amortized: once the
// window's high-water mark is reached the free list never empties
// again.
func (d *ringDeps) grow() {
	z := d.z
	z.growArena(max(2*len(z.slotGid), 64))
	d.r.gates, d.r.q2 = z.slotGate, z.slotQ2
	d.r.succ, d.r.inDeg = z.slotSucc, z.slotInDeg
	d.r.s.growMarks(len(z.slotGid))
}

func (d *ringDeps) seq(h int) int64 { return d.z.slotGid[h] }

// circuitSource adapts an in-memory circuit to the GateSource shape.
type circuitSource struct {
	c *circuit.Circuit
	i int
}

// NewCircuitSource returns a GateSource yielding c's gates in order.
func NewCircuitSource(c *circuit.Circuit) GateSource { return &circuitSource{c: c} }

//sabre:hotpath
func (cs *circuitSource) Next() (circuit.Gate, bool, error) {
	if cs.i >= cs.c.NumGates() {
		return circuit.Gate{}, false, nil
	}
	g := cs.c.Gate(cs.i)
	cs.i++
	return g, true, nil
}

// streamRouter is what streaming adds to the router's loop: admission
// and refill from the GateSource, chunk flushes to the StreamSink, and
// StreamStats.
type streamRouter struct {
	rt    *router
	deps  streamDeps
	src   GateSource
	sink  StreamSink
	sopts StreamOptions

	eof bool
	err error

	admitted   int
	admitted2q int
	emitted    int64
	chunks     int
	maxFront   int
	maxWindow  int
}

// newStreamRouter wires one streaming traversal from a random layout
// drawn from s's generator seeded with opts.Seed. A nil p routes
// through the windowed slot arena; otherwise the stream is p's circuit,
// admitted gate by gate (dagDeps).
func newStreamRouter(dev *arch.Device, opts Options, sopts StreamOptions, src GateSource, sink StreamSink, s *Scratch, p *Prepared, cancelled <-chan struct{}) *streamRouter {
	n := dev.NumQubits()
	rng := s.Seeded(opts.Seed)
	layout := mapping.Random(n, rng)
	sr := &streamRouter{src: src, sink: sink, sopts: sopts.normalized()}
	if p != nil {
		sr.rt = newRouter(dev, opts, p.wdist, layout, rng, s, p.circ.NumGates(), cancelled)
		p.attach(sr.rt, false)
		sr.deps = &dagDeps{r: sr.rt, pred: p.rev}
	} else {
		var wdist []float64
		if opts.Noise != nil {
			wdist = dev.WeightedDistancesFor(opts.Noise)
		}
		z := &s.stream
		sr.rt = newRouter(dev, opts, wdist, layout, rng, s, len(z.slotGid), cancelled)
		z.resetStream(n)
		rt := sr.rt
		rt.gates, rt.q2, rt.succ, rt.inDeg = z.slotGate, z.slotQ2, z.slotSucc, z.slotInDeg
		rt.bound, rt.arena = math.MaxInt32, z
		sr.deps = &ringDeps{r: rt, z: z}
	}
	sr.rt.stream = sr
	return sr
}

// fill runs after every drain: flush a full chunk, admit until the
// front layer is non-empty, then top the window up (refill). It
// reports false when the traversal is over: clean end of stream, a
// source or sink error, or cancellation while the front was empty.
//
//sabre:hotpath
func (sr *streamRouter) fill() bool {
	rt := sr.rt
	sr.maybeFlush()
	for len(rt.s.front) == 0 {
		if sr.err != nil || sr.eof {
			return false
		}
		select {
		case <-rt.cancelled:
			rt.aborted = true
			return false
		default:
		}
		sr.admitOne()
		rt.drain()
		sr.maybeFlush()
	}
	sr.refill()
	if sr.err != nil {
		return false
	}
	sr.maxFront = max(sr.maxFront, len(rt.s.front))
	return true
}

// admitOne pulls, validates and admits the next source gate; on EOF or
// error it latches eof so the loop can wind down.
//
//sabre:hotpath
func (sr *streamRouter) admitOne() {
	g, ok, err := sr.src.Next()
	if err != nil {
		sr.err = err
		sr.eof = true
		return
	}
	if !ok {
		sr.eof = true
		return
	}
	rt := sr.rt
	n := rt.n
	if g.Q0 < 0 || g.Q0 >= n || (g.TwoQubit() && (g.Q1 < 0 || g.Q1 >= n || g.Q1 == g.Q0)) {
		sr.failGate(g)
		return
	}
	h, ready := sr.deps.admit(g)
	sr.admitted++
	if g.TwoQubit() {
		sr.admitted2q++
	}
	sr.maxWindow = max(sr.maxWindow, sr.admitted-rt.done)
	if ready {
		rt.s.ready = append(rt.s.ready, h)
	}
}

// failGate records a validation error (out of hotpath: fmt allocates).
func (sr *streamRouter) failGate(g circuit.Gate) {
	sr.err = fmt.Errorf("core: stream gate %d (%v) targets a qubit outside the %d-qubit device (or repeats one)",
		sr.admitted, g.Kind, sr.rt.n)
	sr.eof = true
}

// refill tops the window up after a drain: admit until the lookahead
// beyond the front holds ExtendedSetSize two-qubit gates (what one
// scoring round consumes) or Lookahead gates are pending behind the
// front. Part of the pinned semantics — both dependency stores see
// identical admission points.
//
//sabre:hotpath
func (sr *streamRouter) refill() {
	rt := sr.rt
	for !sr.eof && sr.err == nil {
		front := len(rt.s.front)
		if sr.admitted2q-rt.done2q-front >= rt.opts.ExtendedSetSize {
			return
		}
		if sr.admitted-rt.done-front >= sr.sopts.Lookahead {
			return
		}
		sr.admitOne()
		rt.drain()
		sr.maybeFlush()
	}
}

// maybeFlush hands the output buffer to the sink once a chunk's worth
// of gates accumulated.
//
//sabre:hotpath
func (sr *streamRouter) maybeFlush() {
	if len(sr.rt.s.out) >= sr.sopts.ChunkGates {
		sr.flushChunk()
	}
}

func (sr *streamRouter) flushChunk() {
	out := sr.rt.s.out
	if len(out) == 0 || sr.err != nil {
		return
	}
	if err := sr.sink.Emit(out); err != nil {
		sr.err = err
		sr.eof = true
		return
	}
	sr.emitted += int64(len(out))
	sr.chunks++
	sr.rt.s.out = out[:0]
}

// route drives the loop to completion, flushes the tail chunk and
// summarizes the traversal.
func (sr *streamRouter) route(ctx context.Context) (*StreamResult, error) {
	//sabre:nondeterm-ok wall-clock elapsed metric; never feeds routing decisions
	start := time.Now()
	rt := sr.rt
	// The scratch, and with it its router, outlives the stream (a pool
	// may keep it), so the router must not keep the source and the sink
	// reachable once the stream is done.
	defer func() { rt.stream = nil }()
	init := rt.layout.LogicalToPhysical()
	completed := rt.run()
	if sr.err != nil {
		return nil, sr.err
	}
	if !completed {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.Canceled
	}
	sr.flushChunk()
	if sr.err != nil {
		return nil, sr.err
	}
	elapsed := time.Since(start)
	stats := StreamStats{
		GatesIn:      int64(sr.admitted),
		GatesOut:     sr.emitted,
		SwapCount:    rt.swaps,
		BridgeCount:  rt.bridges,
		AddedGates:   3 * (rt.swaps + rt.bridges),
		SwapRounds:   rt.stats.SwapRounds,
		ForcedRoutes: rt.stats.ForcedRoutes,
		MaxFront:     sr.maxFront,
		MaxWindow:    sr.maxWindow,
		WindowBytes:  rt.s.stream.arenaBytes(),
		Chunks:       sr.chunks,
		Elapsed:      elapsed,
	}
	if sec := elapsed.Seconds(); sec > 0 {
		stats.GatesPerSec = float64(stats.GatesOut) / sec
	}
	return &StreamResult{
		InitialLayout: init,
		FinalLayout:   rt.layout.LogicalToPhysical(),
		NumQubits:     rt.n,
		Stats:         stats,
	}, nil
}

// RouteStream routes the gate stream src onto dev and emits the routed
// physical gates through sink in chunks, holding only a bounded window
// of the stream in memory: steady state is O(device + window) however
// long the stream runs. Semantics are the pinned streaming traversal
// (single trial, seeded random initial layout); output is
// deterministic in (stream, dev, opts, sopts.Lookahead) and
// byte-identical to RouteStreamMaterialized on the same input. A nil
// scratch allocates a private one; passing a warm per-worker Scratch
// makes repeated streams allocation-free outside arena high-water
// growth. On error or cancellation the sink keeps whatever chunks were
// already emitted; the partial tail is dropped and an error returned
// (ctx.Err for cancellation).
func RouteStream(ctx context.Context, src GateSource, dev *arch.Device, opts Options, sopts StreamOptions, sink StreamSink, s *Scratch) (*StreamResult, error) {
	if src == nil {
		return nil, errors.New("core: RouteStream needs a gate source")
	}
	if sink == nil {
		return nil, errors.New("core: RouteStream needs a sink")
	}
	if dev == nil {
		return nil, errors.New("core: RouteStream needs a device")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.normalized()
	dev = effectiveDevice(dev, opts)
	if s == nil {
		s = NewScratch()
	}
	return newStreamRouter(dev, opts, sopts, src, sink, s, nil, ctx.Done()).route(ctx)
}

// RouteStreamMaterialized runs the identical pinned streaming
// semantics over a fully materialized circuit and its dependency
// table.
// It is the independent oracle for RouteStream — same loop, same
// admission policy, zero shared dependency bookkeeping — and the
// reference the golden parity suite holds the windowed path to.
// Memory is O(gates); use RouteStream for anything large.
func RouteStreamMaterialized(ctx context.Context, circ *circuit.Circuit, dev *arch.Device, opts Options, sopts StreamOptions, sink StreamSink) (*StreamResult, error) {
	if circ == nil {
		return nil, errors.New("core: RouteStreamMaterialized needs a circuit")
	}
	if sink == nil {
		return nil, errors.New("core: RouteStreamMaterialized needs a sink")
	}
	if dev == nil {
		return nil, errors.New("core: RouteStreamMaterialized needs a device")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := Prepare(circ, dev, opts)
	if err != nil {
		return nil, err
	}
	return newStreamRouter(p.dev, p.opts, sopts, NewCircuitSource(circ), sink, NewScratch(), p, ctx.Done()).route(ctx)
}

// StreamProbe pins a warm streaming router mid-flight over an endless
// deterministic CNOT stream on the 20-qubit Tokyo device, so tests and
// benchmarks can measure a steady-state streaming step in isolation —
// the streaming counterpart of ScoreRoundProbe. Step performs one full
// loop iteration (drain, admission, refill, and a forced-route,
// bridge, or SWAP round) against a no-op sink; after the warmup in
// NewStreamProbe it performs zero heap allocations.
type StreamProbe struct {
	r *router
}

// cycleSource yields a fixed gate sequence forever.
type cycleSource struct {
	gates []circuit.Gate
	i     int
}

//sabre:hotpath
func (c *cycleSource) Next() (circuit.Gate, bool, error) {
	g := c.gates[c.i]
	c.i++
	if c.i == len(c.gates) {
		c.i = 0
	}
	return g, true, nil
}

// discardSink drops every chunk.
type discardSink struct{}

func (discardSink) Emit([]circuit.Gate) error { return nil }

// NewStreamProbe builds the probe and warms it past every amortized
// growth: arena at its high-water mark, output buffer at chunk
// capacity, scoring buffers sized.
func NewStreamProbe() *StreamProbe {
	dev := arch.IBMQ20Tokyo()
	n := dev.NumQubits()
	rng := rand.New(rand.NewSource(17))
	gates := make([]circuit.Gate, 0, 512)
	for len(gates) < 512 {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		gates = append(gates, circuit.CX(a, b))
	}
	sr := newStreamRouter(dev, DefaultOptions().normalized(), StreamOptions{}, &cycleSource{gates: gates}, discardSink{}, NewScratch(), nil, nil)
	for i := 0; i < 4096; i++ {
		sr.rt.step()
	}
	return &StreamProbe{r: sr.rt}
}

// Step runs one steady-state streaming loop iteration.
func (p *StreamProbe) Step() {
	p.r.step()
}
