package batch

import (
	"context"
	"errors"
	"io"
	"sync"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/qasm"
)

// StreamJob is one streaming compilation request: route the gates
// pulled from Source onto Device, emitting the routed gates through
// the caller's sink as they retire. Unlike Job there is no circuit
// value anywhere — the engine never materializes the stream — which
// is also why streaming jobs are uncacheable: the output leaves
// through the sink, so there is nothing to keep.
type StreamJob struct {
	Source  core.GateSource
	Device  *arch.Device
	Options core.Options
	Stream  core.StreamOptions

	// Tag is an optional caller label, echoed nowhere but useful to
	// implementations wrapping the engine.
	Tag string
}

// errNilStreamJob is reported for stream jobs missing a source or
// device.
var errNilStreamJob = errors.New("batch: stream job needs a non-nil Source and Device")

// streamScratches recycles warm routing scratches across streaming
// calls so a daemon serving many streams reaches the zero-alloc
// steady state of a dedicated worker.
var streamScratches = sync.Pool{New: func() any { return core.NewScratch() }}

// CompileStream routes one gate stream through the windowed streaming
// router, emitting routed chunks to sink as gates retire. It runs
// inline on the caller's goroutine — a stream is coupled to its
// caller's connection for its whole lifetime, so parking it on the
// batch worker pool would only add a queue in front of the same
// blocking wait; the pool stays free for cacheable unit jobs.
// Streaming results are never cached (the output is gone through the
// sink) and never deduplicated. Cancellation via ctx is honored at
// round granularity, exactly like the materialized router.
//
// A fully zero Options selects the paper's defaults, mirroring Job
// handling; the streaming router then applies streaming semantics
// (single trial, one forward traversal) itself.
func (e *Engine) CompileStream(ctx context.Context, job StreamJob, sink core.StreamSink) (*core.StreamResult, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if job.Source == nil || job.Device == nil {
		return nil, errNilStreamJob
	}
	if job.Options == (core.Options{}) {
		job.Options = core.DefaultOptions()
		job.Options.Seed = 0
	}
	e.streams.Add(1)
	scratch := streamScratches.Get().(*core.Scratch)
	defer streamScratches.Put(scratch)
	res, err := core.RouteStream(ctx, job.Source, job.Device, job.Options, job.Stream, sink, scratch)
	if err != nil {
		e.errs.Add(1)
		return nil, err
	}
	return res, nil
}

// CompileQASMStream is CompileStream over QASM text transport: gates
// are parsed incrementally from r (no whole-file AST) and the routed
// output is serialized incrementally to w as a complete OpenQASM 2.0
// program, flushed after every chunk. The emitted register width is
// the device width — routed gates address physical qubits. This is
// the full bytes-to-bytes streaming path cmd/sabred serves; peak
// memory is O(device + window) regardless of input length. The
// chunk callback, when non-nil, runs after each flushed chunk with
// the cumulative emitted-gate count (webhook and progress hooks).
func (e *Engine) CompileQASMStream(ctx context.Context, r io.Reader, job StreamJob, w io.Writer, onChunk func(emitted int64) error) (*core.StreamResult, error) {
	if job.Device == nil {
		return nil, errNilStreamJob
	}
	job.Source = qasm.NewGateScanner(r)
	sink := &qasmSink{w: qasm.NewStreamWriter(w, job.Device.NumQubits()), onChunk: onChunk}
	res, err := e.CompileStream(ctx, job, sink)
	if err != nil {
		return nil, err
	}
	return res, sink.w.Flush()
}

// qasmSink serializes routed chunks through a qasm.StreamWriter and
// notifies the optional per-chunk callback.
type qasmSink struct {
	w       *qasm.StreamWriter
	onChunk func(emitted int64) error
	emitted int64
}

func (s *qasmSink) Emit(gates []circuit.Gate) error {
	if err := s.w.WriteGates(gates); err != nil {
		return err
	}
	s.emitted += int64(len(gates))
	if s.onChunk != nil {
		return s.onChunk(s.emitted)
	}
	return nil
}
