package main

import (
	"container/list"
	"crypto/sha256"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/qasm"
)

// gateBytes is the size of one gate in a circuit's gate array.
const gateBytes = int(unsafe.Sizeof(circuit.Gate{}))

// memoBudget bounds the bytes the parse memo keeps: 2^18 gates of 48
// bytes, 12 MiB, hold all 26 Table II circuits (153,733 gates).
const memoBudget = (1 << 18) * gateBytes

// keyStateBytes is the heap a kept batch.KeyState holds: its 48-byte
// header and its 108-byte hash state in a 112-byte allocation.
const keyStateBytes = 48 + 112

// memoEntryBytes is charged for every entry on top of its gates and
// parameters: the map slot with the map's growth headroom, the list
// element, the entry, the circuit header, and the entry's key-state
// pointer with a kept key state. So even empty circuits cannot grow
// the map past the budget.
const memoEntryBytes = 320 + 8 + keyStateBytes

// circuitMemo parses each QASM source once. It maps the SHA-256 of a
// source to its parsed circuit and hands that one circuit, read-only,
// to every request and retained job that sends the same source:
// request circuits are never mutated once parsed. Entries are evicted
// least recently used first to keep the bytes they hold within budget.
// Parse errors are not kept, and neither is a circuit over the whole
// budget.
type circuitMemo struct {
	budget int

	mu      sync.Mutex
	entries map[[sha256.Size]byte]*list.Element
	lru     list.List // of *memoEntry, most recently used first
	stats   memoStats

	// resumes counts the requests that took a key state an earlier
	// request kept (memoStats.KeyResumes).
	resumes atomic.Uint64
}

type memoEntry struct {
	key   [sha256.Size]byte
	circ  *circuit.Circuit
	bytes int

	// state is the cache-key state of circ on the device the latest
	// request that made one named. Requests read and replace it without
	// the memo's lock.
	state atomic.Pointer[batch.KeyState]
}

// memoStats is the memo's counters, as /stats reports them. Bytes is
// what the kept entries are charged against the budget. KeyResumes
// counts the requests whose cache key resumed from a key state an
// earlier request kept.
type memoStats struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Entries    int    `json:"entries"`
	Gates      int    `json:"gates"`
	Bytes      int    `json:"bytes"`
	Evictions  uint64 `json:"evictions"`
	KeyResumes uint64 `json:"key_resumes"`
}

func newCircuitMemo(budget int) *circuitMemo {
	return &circuitMemo{budget: budget, entries: make(map[[sha256.Size]byte]*list.Element)}
}

// parse returns the circuit of src and the entry keeping it, parsing
// it only if no kept entry has src's digest. The entry is nil for a
// circuit the memo does not keep. Two concurrent misses on one source
// both parse; the first to finish is kept and both return it.
func (m *circuitMemo) parse(src string) (*circuit.Circuit, *memoEntry, error) {
	// Sum256 only reads its input, so the source is hashed in place.
	key := sha256.Sum256(unsafe.Slice(unsafe.StringData(src), len(src)))
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.lru.MoveToFront(e)
		m.stats.Hits++
		m.mu.Unlock()
		entry := e.Value.(*memoEntry)
		return entry.circ, entry, nil
	}
	m.stats.Misses++
	m.mu.Unlock()

	c, err := qasm.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	if c.NumGates()*gateBytes > m.budget {
		return c, nil, nil // over budget before it is copied
	}
	c, size := compact(c)
	if size > m.budget {
		return c, nil, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[key]; ok {
		m.lru.MoveToFront(e)
		entry := e.Value.(*memoEntry)
		return entry.circ, entry, nil
	}
	for m.stats.Bytes+size > m.budget {
		old := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.entries, old.key)
		m.stats.Bytes -= old.bytes
		m.stats.Gates -= old.circ.NumGates()
		m.stats.Evictions++
	}
	entry := &memoEntry{key: key, circ: c, bytes: size}
	m.entries[key] = m.lru.PushFront(entry)
	m.stats.Bytes += size
	m.stats.Gates += c.NumGates()
	return c, entry, nil
}

// keyState returns the cache-key state e keeps for dev, or nil; a
// returned state counts as a resume.
func (m *circuitMemo) keyState(e *memoEntry, dev *arch.Device) *batch.KeyState {
	if e == nil {
		return nil
	}
	if ks := e.state.Load(); ks.Matches(dev, e.circ) {
		m.resumes.Add(1)
		return ks
	}
	return nil
}

// keepKeyState makes the cache-key state of e's circuit on dev and
// keeps it in place of the entry's state for another device, so a
// source sent to several devices in turn hashes in full, as without a
// state, on each switch. The state holds dev, so callers keep states
// only for devices that live as long as the daemon.
func (e *memoEntry) keepKeyState(dev *arch.Device) *batch.KeyState {
	ks := batch.NewKeyState(dev, e.circ)
	e.state.Store(ks)
	return ks
}

// compact copies c into one gate array and one parameter array, each
// allocated at the size it needs, and returns the copy with the bytes
// a memo entry holding it is charged. Parse reserves gate slots by
// counting semicolons, those in comments too, and keeps parameters in
// 2 KB slabs, so the circuit it returns can hold far more memory than
// its gates need.
func compact(c *circuit.Circuit) (*circuit.Circuit, int) {
	gates := slices.Clone(c.Gates())
	n := 0
	for _, g := range gates {
		n += len(g.Params)
	}
	params := slices.Grow([]float64(nil), n)
	for i, g := range gates {
		if len(g.Params) > 0 {
			params = append(params, g.Params...)
			gates[i].Params = params[len(params)-len(g.Params) : len(params) : len(params)]
		}
	}
	out := circuit.FromTrusted(c.NumQubits(), gates)
	out.SetName(c.Name())
	return out, cap(gates)*gateBytes + cap(params)*int(unsafe.Sizeof(float64(0))) + memoEntryBytes
}

// snapshot returns the memo's counters.
func (m *circuitMemo) snapshot() memoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Entries = len(m.entries)
	st.KeyResumes = m.resumes.Load()
	return st
}
