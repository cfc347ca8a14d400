package jobqueue

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/qasm"
)

// persist.go is the durable wire form of a Request: what the job log
// stores in an accepted record's payload so a replayed job re-submits
// the exact compilation. The circuit travels as OpenQASM text (the
// repo's canonical circuit serialization), the device as its spec
// string (arch.FromSpec vocabulary — Device.Name is a display label
// and does NOT round-trip), and the noise model as an edge list
// (NoiseModel's map keys are structs, which encoding/json cannot use
// as object keys).
//
// Not persisted, by design:
//
//   - Fleet decisions: advisory routing metadata; the chosen device
//     spec is what matters and it IS persisted.
//   - CalVersion: a pinned snapshot version is meaningless across a
//     restart (snapshots are in-memory). UseCalibration replays and
//     re-resolves against the device's current snapshot — the same
//     thing a fresh submission would see.

// persistedJob is the JSON schema of an accepted record's payload.
// Version bumps happen at the joblog record layer (recordVersion), not
// here; unknown fields are ignored on decode, so additive evolution is
// free.
type persistedJob struct {
	QASM    string           `json:"qasm"`
	Name    string           `json:"name,omitempty"` // qasm.Format drops the circuit name
	Device  string           `json:"device"`
	Options persistedOptions `json:"options"`

	Trials         int      `json:"trials,omitempty"`
	Route          string   `json:"route,omitempty"`
	Passes         []string `json:"passes,omitempty"`
	Tag            string   `json:"tag,omitempty"`
	UseCalibration bool     `json:"use_calibration,omitempty"`

	Webhook string `json:"webhook,omitempty"`
}

// persistedOptions mirrors core.Options field for field, with the
// noise model in list form. A mirror (rather than marshalling
// core.Options directly) pins the wire schema: adding a field to
// core.Options cannot silently change what old logs decode to. Old
// records may name "scoring": 1, the retired delta engine, which core
// routes as the bitset default, or carry "parallel_trials", a retired
// option that changed only wall-clock time, which decoding ignores.
type persistedOptions struct {
	Heuristic          uint8           `json:"heuristic,omitempty"`
	ExtendedSetSize    int             `json:"extended_set_size,omitempty"`
	ExtendedSetWeight  float64         `json:"extended_set_weight,omitempty"`
	DecayDelta         float64         `json:"decay_delta,omitempty"`
	DecayResetInterval int             `json:"decay_reset_interval,omitempty"`
	Trials             int             `json:"trials,omitempty"`
	Traversals         int             `json:"traversals,omitempty"`
	Seed               int64           `json:"seed,omitempty"`
	MaxStall           int             `json:"max_stall,omitempty"`
	UseBridge          bool            `json:"use_bridge,omitempty"`
	Noise              *persistedNoise `json:"noise,omitempty"`
	MaxEdgeError       float64         `json:"max_edge_error,omitempty"`
	Scoring            uint8           `json:"scoring,omitempty"`

	// ExhaustiveScoring is read from old records only: the retired
	// legacy spelling of Scoring: ScoringExhaustive, decoded as such.
	// Every engine routes byte-identically, so such a record replays to
	// the bitset result.
	ExhaustiveScoring bool `json:"exhaustive_scoring,omitempty"`
}

// persistedNoise is arch.NoiseModel with the edge map flattened to a
// sorted list (deterministic bytes for identical models).
type persistedNoise struct {
	Default float64          `json:"default,omitempty"`
	Edges   []persistedNoisy `json:"edges,omitempty"`
}

type persistedNoisy struct {
	A     int     `json:"a"`
	B     int     `json:"b"`
	Error float64 `json:"error"`
}

// encodeRequest serializes a Request for the job log. It fails when
// the request cannot survive a restart: a durable queue requires
// Request.DeviceSpec (Device.Name is not re-parseable).
func encodeRequest(req Request) ([]byte, error) {
	if req.DeviceSpec == "" {
		return nil, fmt.Errorf("jobqueue: durable submit needs Request.DeviceSpec (a spec arch.FromSpec can parse; Device.Name is a display label)")
	}
	p := persistedJob{
		QASM:           qasm.Format(req.Job.Circuit),
		Name:           req.Job.Circuit.Name(),
		Device:         req.DeviceSpec,
		Options:        encodeOptions(req.Job.Options),
		Trials:         req.Job.Trials,
		Route:          req.Job.Route,
		Passes:         req.Job.Passes,
		Tag:            req.Job.Tag,
		UseCalibration: req.Job.UseCalibration,
		Webhook:        req.Webhook,
	}
	return json.Marshal(p)
}

// decodeRequest rebuilds a Request from an accepted record's payload.
// device resolves the persisted spec (the daemon passes its memoized
// resolver so replayed jobs share calibratable device instances).
func decodeRequest(payload []byte, device func(spec string) (*arch.Device, error)) (Request, error) {
	var p persistedJob
	if err := json.Unmarshal(payload, &p); err != nil {
		return Request{}, fmt.Errorf("jobqueue: decode job payload: %w", err)
	}
	circ, err := qasm.Parse(p.QASM)
	if err != nil {
		return Request{}, fmt.Errorf("jobqueue: decode job circuit: %w", err)
	}
	if p.Name != "" {
		circ.SetName(p.Name)
	}
	if device == nil {
		device = arch.FromSpec
	}
	dev, err := device(p.Device)
	if err != nil {
		return Request{}, fmt.Errorf("jobqueue: decode job device %q: %w", p.Device, err)
	}
	return Request{
		Job: batch.Job{
			Circuit:        circ,
			Device:         dev,
			Options:        decodeOptions(p.Options),
			Trials:         p.Trials,
			Route:          p.Route,
			Passes:         p.Passes,
			Tag:            p.Tag,
			UseCalibration: p.UseCalibration,
		},
		Webhook:    p.Webhook,
		DeviceSpec: p.Device,
	}, nil
}

func encodeOptions(o core.Options) persistedOptions {
	return persistedOptions{
		Heuristic:          uint8(o.Heuristic),
		ExtendedSetSize:    o.ExtendedSetSize,
		ExtendedSetWeight:  o.ExtendedSetWeight,
		DecayDelta:         o.DecayDelta,
		DecayResetInterval: o.DecayResetInterval,
		Trials:             o.Trials,
		Traversals:         o.Traversals,
		Seed:               o.Seed,
		MaxStall:           o.MaxStall,
		UseBridge:          o.UseBridge,
		Noise:              encodeNoise(o.Noise),
		MaxEdgeError:       o.MaxEdgeError,
		Scoring:            uint8(o.Scoring),
	}
}

func decodeOptions(p persistedOptions) core.Options {
	if p.ExhaustiveScoring && p.Scoring == 0 {
		p.Scoring = uint8(core.ScoringExhaustive)
	}
	return core.Options{
		Heuristic:          core.Heuristic(p.Heuristic),
		ExtendedSetSize:    p.ExtendedSetSize,
		ExtendedSetWeight:  p.ExtendedSetWeight,
		DecayDelta:         p.DecayDelta,
		DecayResetInterval: p.DecayResetInterval,
		Trials:             p.Trials,
		Traversals:         p.Traversals,
		Seed:               p.Seed,
		MaxStall:           p.MaxStall,
		UseBridge:          p.UseBridge,
		Noise:              decodeNoise(p.Noise),
		MaxEdgeError:       p.MaxEdgeError,
		Scoring:            core.Scoring(p.Scoring),
	}
}

func encodeNoise(m *arch.NoiseModel) *persistedNoise {
	if m == nil {
		return nil
	}
	out := &persistedNoise{Default: m.Default}
	if len(m.EdgeError) > 0 {
		out.Edges = make([]persistedNoisy, 0, len(m.EdgeError))
		//sabre:nondeterm-ok edge list is fully sorted below
		for e, v := range m.EdgeError {
			out.Edges = append(out.Edges, persistedNoisy{A: e.A, B: e.B, Error: v})
		}
		sort.Slice(out.Edges, func(i, j int) bool {
			if out.Edges[i].A != out.Edges[j].A {
				return out.Edges[i].A < out.Edges[j].A
			}
			return out.Edges[i].B < out.Edges[j].B
		})
	}
	return out
}

func decodeNoise(p *persistedNoise) *arch.NoiseModel {
	if p == nil {
		return nil
	}
	m := &arch.NoiseModel{Default: p.Default}
	if len(p.Edges) > 0 {
		m.EdgeError = make(map[arch.Edge]float64, len(p.Edges))
		for _, e := range p.Edges {
			m.EdgeError[arch.NewEdge(e.A, e.B)] = e.Error
		}
	}
	return m
}
