package core

import (
	"math/rand"
	"unsafe"

	"repro/internal/circuit"
)

// Scratch owns everything a routing traversal mutates — the router
// itself, its working layout and every reusable buffer — so a worker
// that routes many passes (a trial worker, an annealing chain)
// performs zero steady-state heap allocations per traversal: all
// per-traversal and per-round state lives here and is reset in place,
// never reallocated, once warm. A Scratch is single-goroutine state —
// per-worker, shared with nobody — which is exactly the share-nothing
// discipline that keeps parallel trials off each other's cache lines.
// The zero value is an empty scratch, ready to use (NewScratch returns
// one). Passing nil where a *Scratch is accepted makes the callee
// allocate a private one.
//
// Buffer-clearing convention: gate-indexed mark buffers are
// epoch-stamped ([]int32 marks compared against a monotonically
// increasing epoch) so "clearing" a mark set is one integer increment,
// not an O(n) wipe; on the rare epoch overflow the marks are zeroed
// and the epoch restarts at 1. The candidate bitset uses the stronger
// consume-to-zero convention instead: extraction zeroes every word it
// reads, so the buffer is all-zero (across its full capacity) between
// rounds and needs no epoch at all.
type Scratch struct {
	// rt is the current traversal's router, reset in place by newRouter.
	// Its layout keeps its storage across resets: it holds the
	// traversal's working copy of the start layout.
	rt router

	// Traversal state, sized per pass. front, ready and extended hold
	// dependency-store handles: gate indices, or window slots when
	// streaming.
	inDeg []int32        // working indegree of a circuit's gates
	front []int          // front layer F
	ready []int          // dependency-released, executability unchecked
	out   []circuit.Gate // routed output accumulator (emitGates)
	log   []int32        // op log accumulator (emitRecord)
	decay []float64      // per logical qubit decay, len = device size

	// SWAP-candidate collection: a bitset over the dense edge-id space
	// (len = arch.Device.EdgeWords), filled by OR-ing the incident-edge
	// rows of the front-layer qubits and drained in ascending edge id
	// by trailing-zero iteration. Invariant: all-zero between rounds,
	// across the slice's full capacity — extraction consumes the words
	// it touched back to zero, and words beyond a small device's length
	// were never set, so a later, larger device starts clean.
	// candIDs is the drained list of dense edge ids, in ascending
	// order — the canonical candidate order every scoring engine and
	// the tie-break RNG stream depend on. It stays ids (4 bytes, one
	// store per candidate) rather than materialized edges; consumers
	// resolve endpoints through the device's edge-endpoint table
	// (router.candidate), which the scorers load anyway.
	candWords []uint64
	candIDs   []int32

	// scores holds the per-candidate heuristic scores of one round
	// under the exhaustive reference, consumed by selectBest.
	scores []float64

	// Extended-set BFS: visited marks are epoch stamps per handle;
	// bfsQueue is the reused BFS queue.
	extended  []int
	gateMark  []int32 // len = handle count; BFS visited set
	gateEpoch int32
	bfsQueue  []int

	// Per-round bitset-scoring index. Front-layer gates are
	// vertex-disjoint (two gates sharing a qubit are DAG-ordered, so at
	// most one can be in F), which collapses the front index to a single
	// slot per qubit: fpart[q] is the *physical* qubit of q's front
	// partner, or -1. The extended set is not disjoint, so it keeps a
	// CSR layout: qubit q's extended partners (again physical,
	// pre-resolved so the scoring loop is a pure gather) live in
	// extPhys[extOff[q]:extOff[q+1]]; extCnt is the counting pass's
	// buffer, reused as the fill cursor.
	fpart   []int32 // len n, -1 = no front partner
	extCnt  []int32
	extOff  []int32 // len n+1
	extPhys []int32

	// stream owns the streaming window (RouteStream): a slot arena
	// that stands in for the circuit's dependency table, so the
	// gate-indexed buffers above become slot-indexed and a streaming
	// traversal's memory is O(device + window) however long the gate
	// stream runs.
	stream streamScratch

	// rng is the trial generator, reseeded per trial (see Seeded).
	rng *rand.Rand
}

// streamScratch is the streaming window's reusable state: the slot
// arena behind ringDeps and the per-qubit dependency chain tails.
//
// The arena is a free-list slot store, not a FIFO ring: a slot is
// recycled the moment its gate retires, so long-lived blocked gates
// never pin the slots of the pass-through traffic admitted after them
// (a position-indexed ring would — its span is unbounded on streams
// that execute out of admission order). Per-qubit dependency chains
// replace the precomputed table: chainTail remembers the last gate
// admitted on each wire, and a tail whose slot was since recycled is
// detected by comparing the remembered gid against the slot's current
// one (slotGid is set to -1 on free and to a fresh, strictly
// increasing gid on reuse, so a stale tail can never alias a live
// slot).
type streamScratch struct {
	// Slot arena, all indexed by slot id; slotQ2 and slotSucc hold two
	// entries per slot. slotGate, slotQ2, slotSucc and slotInDeg are
	// the router's gate, pair and dependency tables while streaming.
	// slotSucc[2s] and slotSucc[2s+1] are the slots depending on s, in
	// admission order (-1 none); one that shares both of s's wires
	// appears twice.
	slotGate  []circuit.Gate
	slotGid   []int64 // admission gid, -1 = slot free
	slotQ2    []int32
	slotInDeg []int32
	slotSucc  []int32
	free      []int32 // free slot ids, popped from the tail

	// Per-qubit dependency chain tails (device-sized).
	chainTailSlot []int32
	chainTailGid  []int64
}

// resetStream readies the streaming state for one traversal on an
// n-qubit device: chain tails cleared, every arena slot freed. Arena
// capacity is kept — a warm Scratch replays a new stream without
// touching the allocator.
func (z *streamScratch) resetStream(n int) {
	if cap(z.chainTailSlot) < n {
		z.chainTailSlot = make([]int32, n)
		z.chainTailGid = make([]int64, n)
	}
	z.chainTailSlot = z.chainTailSlot[:n]
	z.chainTailGid = z.chainTailGid[:n]
	for i := range z.chainTailSlot {
		z.chainTailSlot[i] = -1
		z.chainTailGid[i] = -1
	}
	z.free = z.free[:0]
	for i := len(z.slotGid) - 1; i >= 0; i-- {
		z.slotGate[i] = circuit.Gate{}
		z.slotGid[i] = -1
		z.free = append(z.free, int32(i))
	}
}

// recycle frees slot h once its gate has retired.
//
//sabre:hotpath
func (z *streamScratch) recycle(h int) {
	z.slotGate[h] = circuit.Gate{}
	z.slotGid[h] = -1
	z.free = append(z.free, int32(h))
}

// growArena grows the slot arena to hold target slots, pushing the new
// slot ids onto the free list highest-first so the lowest index is
// recycled next (keeps the hot window cache-compact). Slot ids are
// stable across growth: the arrays only ever extend.
func (z *streamScratch) growArena(target int) {
	old := len(z.slotGid)
	if target <= old {
		return
	}
	slotGate := make([]circuit.Gate, target)
	copy(slotGate, z.slotGate)
	z.slotGate = slotGate
	slotGid := make([]int64, target)
	copy(slotGid, z.slotGid)
	z.slotGid = slotGid
	slotQ2 := make([]int32, 2*target)
	copy(slotQ2, z.slotQ2)
	z.slotQ2 = slotQ2
	slotInDeg := make([]int32, target)
	copy(slotInDeg, z.slotInDeg)
	z.slotInDeg = slotInDeg
	slotSucc := make([]int32, 2*target)
	copy(slotSucc, z.slotSucc)
	z.slotSucc = slotSucc
	for i := target - 1; i >= old; i-- {
		z.slotGid[i] = -1
		z.free = append(z.free, int32(i))
	}
}

// arenaBytes is the window's memory footprint: the slot arena plus the
// chain tails.
func (z *streamScratch) arenaBytes() int64 {
	b := int64(cap(z.slotGate)) * int64(unsafe.Sizeof(circuit.Gate{}))
	b += int64(cap(z.slotGid)+cap(z.chainTailGid)) * 8
	b += int64(cap(z.slotQ2)+cap(z.slotInDeg)+cap(z.slotSucc)+cap(z.free)+cap(z.chainTailSlot)) * 4
	return b
}

// NewScratch returns an empty scratch. Buffers grow to the sizes of
// whatever passes it serves and are then reused; keep one per worker.
func NewScratch() *Scratch { return &Scratch{} }

// Seeded returns the scratch's generator seeded with seed. Seeding
// resets a math/rand source in full, so its stream is that of
// rand.New(rand.NewSource(seed)), and a trial or a stream on a warm
// scratch allocates no new 4.9 KB source. The generator is the
// scratch's, so it is valid until the next Seeded call.
func (s *Scratch) Seeded(seed int64) *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng.Seed(seed)
	}
	return s.rng
}

// reset sizes the scratch for one traversal: n device qubits, handles
// dependency-store handles (gates, or arena slots when streaming),
// edges coupling edges. Buffers are grown only when a
// larger circuit or device arrives; otherwise they are re-sliced.
// Growing candWords allocates a zeroed buffer and shrinking merely
// re-slices, so the all-zero-across-capacity invariant survives any
// sequence of devices.
func (s *Scratch) reset(n, handles, edges int) {
	if cap(s.decay) < n {
		s.decay = make([]float64, n)
	}
	s.decay = s.decay[:n]
	for i := range s.decay {
		s.decay[i] = 1
	}
	words := (edges + 63) / 64
	if cap(s.candWords) < words {
		s.candWords = make([]uint64, words)
	}
	s.candWords = s.candWords[:words]
	s.growMarks(handles)
	if cap(s.fpart) < n {
		s.fpart = make([]int32, n)
		s.extCnt = make([]int32, n)
		s.extOff = make([]int32, n+1)
	}
	s.fpart = s.fpart[:n]
	s.extCnt = s.extCnt[:n]
	s.extOff = s.extOff[:n+1]
	s.front = s.front[:0]
	s.ready = s.ready[:0]
	s.out = s.out[:0]
	s.log = s.log[:0]
	s.extended = s.extended[:0]
	s.candIDs = s.candIDs[:0]
	s.bfsQueue = s.bfsQueue[:0]
}

// growMarks sizes the BFS marks for handles handles. A grown buffer
// starts all-zero and no epoch is zero, so no mark reads as visited;
// the streaming window grows it mid-traversal, between two BFS walks.
func (s *Scratch) growMarks(handles int) {
	if cap(s.gateMark) < handles {
		s.gateMark = make([]int32, handles)
	}
	s.gateMark = s.gateMark[:handles]
}

// nextGateEpoch advances the gate epoch, wiping the marks on overflow.
// The wipe covers the full capacity, not just the current slice: a
// smaller circuit may be in service when the epoch wraps, and the
// hidden tail must not hold marks a later, larger circuit would read.
func (s *Scratch) nextGateEpoch() int32 {
	s.gateEpoch++
	if s.gateEpoch < 0 {
		full := s.gateMark[:cap(s.gateMark)]
		for i := range full {
			full[i] = 0
		}
		s.gateEpoch = 1
	}
	return s.gateEpoch
}
