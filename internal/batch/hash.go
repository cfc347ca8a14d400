package batch

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/route"
)

// Key is the canonical identity of a compilation job: a digest of the
// circuit structure, the device, and every Options field that can
// change the compile result. Two jobs with equal Keys produce
// byte-identical routed circuits, which is what lets the engine share
// cached results safely.
type Key [sha256.Size]byte

// keyVersion is bumped whenever the encoding below changes, so stale
// digests can never alias across engine versions (relevant once keys
// are persisted or exchanged between processes). Version 2 added the
// post-routing pass list; version 3 added the routing-backend name;
// version 4 added the calibration snapshot version, so results routed
// under one calibration are never served after a recalibration.
const keyVersion = 4

// KeyOf computes the cache key of a job. The encoding is canonical:
// field order is fixed, floats are encoded by their IEEE-754 bits, and
// map-backed structures (the noise model) are sorted before hashing.
// A job whose KeyState was made for its own Device and Circuit hashes
// only the options section; the digest is the same either way.
func KeyOf(job Job) Key {
	// Defensive for callers hashing unresolved jobs directly; inside
	// the engine this is a no-op (process resolves before hashing).
	job = job.ResolveCalibration()
	e := newKeyEncoder()
	defer keyEncoders.Put(e)
	if !job.KeyState.Matches(job.Device, job.Circuit) || !e.resume(job.KeyState.state) {
		e.prefix(job.Device, job.Circuit)
	}

	// Options, every result-affecting field. The Trials override is
	// folded in first so it is always part of the cache identity.
	o := job.Options
	if job.Trials > 0 {
		o.Trials = job.Trials
	}
	e.u64(uint64(o.Heuristic))
	e.i64(int64(o.ExtendedSetSize))
	e.f64(o.ExtendedSetWeight)
	e.f64(o.DecayDelta)
	e.i64(int64(o.DecayResetInterval))
	e.i64(int64(o.Trials))
	e.i64(int64(o.Traversals))
	e.i64(o.Seed)
	e.i64(int64(o.MaxStall))
	if o.UseBridge {
		e.u64(1)
	} else {
		e.u64(0)
	}
	e.f64(o.MaxEdgeError)
	hashNoise(e, o.Noise)
	// Calibration snapshot version: distinguishes results routed under
	// successive recalibrations even beyond the noise content above
	// (and is what lets a service observe the expected cache miss after
	// a recalibration lands).
	e.u64(job.CalVersion)

	// Routing backend, in canonical registry form so aliases (bka,
	// trials) and the implicit default ("" = sabre) share cache
	// entries. An unregistered name hashes as spelled — the job fails
	// before compiling, and errors are never cached, so the entry can
	// never be served.
	routeName, err := route.Canonical(job.Route)
	if err != nil {
		routeName = strings.ToLower(strings.TrimSpace(job.Route))
	}
	e.str(routeName)

	// Post-routing pass list, normalized so spelling variants share
	// cache entries. The effective trial count is covered above via
	// o.Trials; callers overriding Job.Trials must fold it in first
	// (the engine does).
	passes := normalizePasses(job.Passes)
	e.u64(uint64(len(passes)))
	for _, name := range passes {
		e.str(name)
	}
	return e.sum()
}

// KeyState is the SHA-256 state of KeyOf's encoding after its version,
// device and circuit sections, made for one device and one circuit
// pointer. Those sections depend on nothing else, so a job carrying a
// state made for its own Device and Circuit resumes from it and hashes
// only its options section, about 150 bytes instead of 24 or more per
// gate. Matching is by pointer identity, which makes it exact only
// while neither the circuit nor the device's name, size and edges
// change: a caller keeps states only for circuits it never mutates.
// A state is 108 bytes (crypto/sha256's marshaled digest) plus its
// header; it is never persisted.
type KeyState struct {
	dev   *arch.Device
	circ  *circuit.Circuit
	state []byte
}

// NewKeyState hashes the device and circuit sections of the cache key
// of any job on dev and c, and returns the hash state after them.
func NewKeyState(dev *arch.Device, c *circuit.Circuit) *KeyState {
	e := newKeyEncoder()
	defer keyEncoders.Put(e)
	e.prefix(dev, c)
	e.flush()
	state, err := e.h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("batch: " + err.Error()) // crypto/sha256 marshals any state
	}
	return &KeyState{dev: dev, circ: c, state: state}
}

// Matches reports whether s was made for exactly dev and c; a nil
// state matches nothing.
func (s *KeyState) Matches(dev *arch.Device, c *circuit.Circuit) bool {
	return s != nil && s.dev == dev && s.circ == c
}

// keyBufSize is KeyOf's encoding buffer. A job of up to a few
// thousand gates is hashed with a single Write; a larger one in blocks
// of this size, so hashing never holds a second copy of a large
// circuit.
const keyBufSize = 64 << 10

// keyEncoder appends the canonical key encoding — little-endian 8-byte
// words and length-prefixed strings — to a buffer and hashes it a
// block at a time, instead of one sha256 Write per field.
type keyEncoder struct {
	h   hash.Hash
	buf []byte
}

// keyEncoders recycles encoders across KeyOf calls, which run on every
// request, cache hits included.
var keyEncoders = sync.Pool{New: func() any {
	return &keyEncoder{h: sha256.New(), buf: make([]byte, 0, keyBufSize)}
}}

// newKeyEncoder takes an encoder from the pool and resets both halves:
// an encoder a panicking caller returned may hold a partial encoding.
func newKeyEncoder() *keyEncoder {
	e := keyEncoders.Get().(*keyEncoder)
	e.h.Reset()
	e.buf = e.buf[:0]
	return e
}

// prefix encodes the key's version, device and circuit sections.
func (e *keyEncoder) prefix(dev *arch.Device, c *circuit.Circuit) {
	e.u64(keyVersion)

	// Device: name alone is not unique (custom devices may collide), so
	// the size and full edge list are folded in. Edges() is canonical:
	// construction order with each edge normalized to A < B. Every
	// variable-length section carries a length prefix so distinct
	// (device, circuit) byte streams can never alias each other.
	e.str(dev.Name())
	e.i64(int64(dev.NumQubits()))
	e.u64(uint64(len(dev.Edges())))
	for _, d := range dev.Edges() {
		e.i64(int64(d.A))
		e.i64(int64(d.B))
	}

	// Circuit structure. The name is excluded: it is reporting metadata
	// and does not affect routing.
	e.i64(int64(c.NumQubits()))
	e.i64(int64(c.NumGates()))
	for _, g := range c.Gates() {
		e.u64(uint64(g.Kind))
		e.i64(int64(g.Q0))
		e.i64(int64(g.Q1))
		for _, p := range g.Params {
			e.f64(p)
		}
	}
}

// resume restores the hash to a state NewKeyState made, reporting
// whether it could; the encoder must be empty.
func (e *keyEncoder) resume(state []byte) bool {
	if err := e.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		e.h.Reset()
		return false
	}
	return true
}

func (e *keyEncoder) u64(v uint64) {
	if len(e.buf)+8 > cap(e.buf) {
		e.flush()
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func (e *keyEncoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *keyEncoder) f64(v float64) { e.u64(math.Float64bits(v)) }

// str encodes a length-prefixed string.
func (e *keyEncoder) str(s string) {
	e.u64(uint64(len(s)))
	if len(e.buf)+len(s) > cap(e.buf) {
		e.flush()
	}
	e.buf = append(e.buf, s...)
}

func (e *keyEncoder) flush() {
	e.h.Write(e.buf)
	e.buf = e.buf[:0]
}

// sum returns the digest, appended into the emptied buffer rather
// than a Key, which the hash interface would move to the heap.
func (e *keyEncoder) sum() Key {
	e.flush()
	var k Key
	copy(k[:], e.h.Sum(e.buf))
	return k
}

// hashNoise folds a noise model into the digest with its edge map in
// sorted order (Go map iteration order is randomized).
func hashNoise(e *keyEncoder, m *arch.NoiseModel) {
	if m == nil {
		e.u64(0)
		return
	}
	e.u64(1)
	e.f64(m.Default)
	e.u64(uint64(len(m.EdgeError)))
	edges := make([]arch.Edge, 0, len(m.EdgeError))
	//sabre:nondeterm-ok keys collected then sorted below
	for d := range m.EdgeError {
		edges = append(edges, d)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	for _, d := range edges {
		e.u64(uint64(d.A)<<32 | uint64(uint32(d.B)))
		e.f64(m.EdgeError[d])
	}
}

// deriveSeed returns the effective SABRE seed for a job: an explicit
// caller seed is kept, while the zero seed is replaced by a value
// derived from the job's structural key mixed with the engine's base
// seed. The derived seed depends only on job content — never on
// submission index, worker id, or scheduling — so batch results are
// reproducible under any worker count and any job order.
func deriveSeed(key Key, base int64, opts core.Options) core.Options {
	if opts.Seed != 0 {
		return opts
	}
	mixed := binary.LittleEndian.Uint64(key[:8]) ^ uint64(base)*0x9e3779b97f4a7c15
	seed := int64(mixed &^ (1 << 63)) // keep it positive for readability in logs
	if seed == 0 {
		seed = 1
	}
	opts.Seed = seed
	return opts
}

// Fingerprint is a cheap structural digest of a circuit alone (no
// device or options), handy for logging and for tests that assert two
// routed circuits are structurally identical without formatting QASM.
func Fingerprint(c *circuit.Circuit) uint64 {
	h := sha256.New()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w(uint64(c.NumQubits()))
	for _, g := range c.Gates() {
		w(uint64(g.Kind))
		w(uint64(uint32(g.Q0))<<32 | uint64(uint32(g.Q1)))
		for _, p := range g.Params {
			w(math.Float64bits(p))
		}
	}
	return binary.LittleEndian.Uint64(h.Sum(nil)[:8])
}
