package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"lacc/internal/experiments"
	"lacc/internal/sim"
	"lacc/internal/workloads"
)

// Request is the JSON body accepted by /v1/run and every
// /v1/experiments/* endpoint. All fields are optional unless an
// endpoint's documentation says otherwise (docs/API.md); zero values mean
// the paper's defaults (64 cores, scale 1.0, seed 0, all 21 benchmarks,
// the Table 1 machine). Fields irrelevant to an endpoint are ignored by
// it but still part of the request identity for coalescing.
type Request struct {
	// Workload names the benchmark for /v1/run (required there).
	Workload string `json:"workload,omitempty"`

	// Cores and MeshWidth set the machine geometry; MeshWidth 0 picks the
	// squarest width for Cores, and an explicit width must divide Cores.
	Cores     int `json:"cores,omitempty"`
	MeshWidth int `json:"mesh_width,omitempty"`
	// Scale is the workload problem-size multiplier (0 = 1.0); it is
	// capped by the server's MaxScale.
	Scale float64 `json:"scale,omitempty"`
	// Seed perturbs workload randomness; any value is valid and becomes
	// part of the simulation fingerprint.
	Seed uint64 `json:"seed,omitempty"`
	// Benchmarks restricts experiments to a subset (nil = all 21).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Config overrides individual Table 1 machine parameters.
	Config *ConfigOverrides `json:"config,omitempty"`

	// PCTs is the /v1/experiments/pct-sweep sweep (nil = Figure 8's 1..8).
	PCTs []int `json:"pcts,omitempty"`
	// Protocols is the /v1/experiments/protocols kind list (nil = every
	// registered protocol: MESI, Dragon, DLS, Neat, hybrid, adaptive).
	Protocols []string `json:"protocols,omitempty"`
	// Pointers is the /v1/experiments/ackwise pointer sweep (nil = {4,
	// cores}).
	Pointers []int `json:"pointers,omitempty"`
	// CoreCounts is the /v1/experiments/scaling machine-size series (nil =
	// {16, 36, 64}) and the storage-scaling series.
	CoreCounts []int `json:"core_counts,omitempty"`
	// Figure selects the artifact for /v1/experiments/figures (required
	// there): fig1, fig2, fig11, fig12, fig13, fig14, storage or
	// storage-scaling.
	Figure string `json:"figure,omitempty"`
}

// ConfigOverrides overrides individual machine parameters on top of the
// Table 1 defaults. Pointer fields distinguish "absent" from an explicit
// zero; plain fields treat zero as absent.
type ConfigOverrides struct {
	// Protocol selects the coherence protocol: adaptive (default), mesi,
	// dragon, dls, neat or hybrid.
	Protocol string `json:"protocol,omitempty"`
	// PCT is the private caching threshold (Table 1 default: 4).
	PCT int `json:"pct,omitempty"`
	// RATMax is the remote access threshold ceiling (default: 16).
	RATMax int `json:"rat_max,omitempty"`
	// NRATLevels is the RAT ladder depth (default: 2).
	NRATLevels int `json:"n_rat_levels,omitempty"`
	// UseTimestamp selects the exact Timestamp classification mode.
	UseTimestamp *bool `json:"use_timestamp,omitempty"`
	// OneWay selects the Adapt1-way protocol variant (Section 3.7).
	OneWay *bool `json:"one_way,omitempty"`
	// ClassifierK sets the Limited-k classifier size; 0 via the pointer
	// means the Complete classifier (default: 3).
	ClassifierK *int `json:"classifier_k,omitempty"`
	// AckwisePointers is the ACKwise-p pointer count (default: 4); values
	// >= cores give a full-map directory.
	AckwisePointers int `json:"ackwise_pointers,omitempty"`
	// VictimReplication enables the Victim Replication baseline.
	VictimReplication *bool `json:"victim_replication,omitempty"`
}

// apply folds the overrides into cfg.
func (ov *ConfigOverrides) apply(cfg *sim.Config) {
	if ov == nil {
		return
	}
	if ov.Protocol != "" {
		cfg.ProtocolKind = sim.ProtocolKind(ov.Protocol)
	}
	if ov.PCT != 0 {
		cfg.Protocol.PCT = ov.PCT
		if cfg.Protocol.RATMax < ov.PCT {
			cfg.Protocol.RATMax = ov.PCT
		}
	}
	if ov.RATMax != 0 {
		cfg.Protocol.RATMax = ov.RATMax
	}
	if ov.NRATLevels != 0 {
		cfg.Protocol.NRATLevels = ov.NRATLevels
	}
	if ov.UseTimestamp != nil {
		cfg.Protocol.UseTimestamp = *ov.UseTimestamp
	}
	if ov.OneWay != nil {
		cfg.Protocol.OneWay = *ov.OneWay
	}
	if ov.ClassifierK != nil {
		cfg.ClassifierK = *ov.ClassifierK
	}
	if ov.AckwisePointers != 0 {
		cfg.AckwisePointers = ov.AckwisePointers
	}
	if ov.VictimReplication != nil {
		cfg.VictimReplication = *ov.VictimReplication
	}
}

// apiError is an error with an HTTP status. Every handler failure is one;
// anything else is reported as a 500. code, when non-empty, is a stable
// machine-readable discriminator rendered alongside the message ("timeout",
// "panic"), so clients branch on it instead of parsing English.
type apiError struct {
	status int
	code   string
	msg    string
}

// Error implements error.
func (e *apiError) Error() string { return e.msg }

// badRequest builds a 400 apiError.
func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// maxBodyBytes bounds request bodies; experiment requests are small.
const maxBodyBytes = 1 << 20

// decodeRequest reads and strictly decodes the JSON request body. An
// empty body is the empty request (all defaults); unknown fields are
// rejected so typos fail loudly instead of silently running the default
// experiment.
func decodeRequest(r *http.Request) (*Request, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, badRequest("reading request body: %v", err)
	}
	if len(body) > maxBodyBytes {
		return nil, &apiError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)}
	}
	req := &Request{}
	if len(bytes.TrimSpace(body)) == 0 {
		req.normalize()
		return req, nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, badRequest("decoding request: %v", err)
	}
	if dec.More() {
		return nil, badRequest("trailing data after JSON request object")
	}
	req.normalize()
	return req, nil
}

// normalize folds the documented scalar defaults into the request, so
// (a) validation checks the values that will actually run — an omitted
// cores field means the paper's 64-core machine and must respect the
// server's MaxCores cap exactly like an explicit 64 — and (b) an omitted
// field and its spelled-out default produce the same canonical key and
// coalesce. List-valued fields keep nil as "the endpoint's default
// list"; they coalesce only when spelled identically.
func (q *Request) normalize() {
	if q.Cores == 0 {
		q.Cores = 64
	}
	if q.Scale == 0 {
		q.Scale = 1
	}
}

// canonicalKey returns the request's canonical identity for request-level
// coalescing: the JSON re-encoding of the decoded, normalized struct, so
// bodies that differ only in field order, whitespace or spelled-out
// scalar defaults (cores, scale) coalesce onto one execution. Lists
// (benchmarks, pcts, ...) must be spelled identically to coalesce.
func (q *Request) canonicalKey() string {
	b, err := json.Marshal(q)
	if err != nil {
		// Request structs contain only marshalable fields; unreachable.
		panic(fmt.Sprintf("server: canonicalKey: %v", err))
	}
	return string(b)
}

// validate checks the request against the endpoint's required fields,
// the server's caps and the simulator's configuration rules, returning a
// 400 apiError describing the first problem — before the request costs
// an admission slot or counts as an execution.
func (s *Server) validate(endpoint string, q *Request) error {
	switch endpoint {
	case "run":
		if q.Workload == "" {
			return badRequest("missing required field \"workload\"")
		}
	case "figures":
		if q.Figure == "" {
			return badRequest("missing required field \"figure\"")
		}
		if _, ok := figures[q.Figure]; !ok {
			return badRequest("unknown figure %q (want fig1, fig2, fig11, fig12, fig13, fig14, storage or storage-scaling)", q.Figure)
		}
	}
	if q.Cores < 1 || q.Cores > s.cfg.MaxCores {
		return badRequest("cores %d out of range [1, %d] (omitted cores default to 64)", q.Cores, s.cfg.MaxCores)
	}
	if q.MeshWidth < 0 {
		return badRequest("mesh_width %d is negative", q.MeshWidth)
	}
	if q.Scale <= 0 || q.Scale > s.cfg.MaxScale {
		return badRequest("scale %g out of range (0, %g] (omitted scale defaults to 1)", q.Scale, s.cfg.MaxScale)
	}
	for _, b := range q.Benchmarks {
		if _, ok := workloads.ByName(b); !ok {
			return badRequest("unknown benchmark %q (see /v1/workloads)", b)
		}
	}
	if q.Workload != "" {
		if _, ok := workloads.ByName(q.Workload); !ok {
			return badRequest("unknown workload %q (see /v1/workloads)", q.Workload)
		}
	}
	if len(q.PCTs) > maxSweepPoints {
		return badRequest("pcts lists %d points, max %d", len(q.PCTs), maxSweepPoints)
	}
	for _, pct := range q.PCTs {
		if pct < 1 || pct > maxPCT {
			return badRequest("pct %d out of range [1, %d]", pct, maxPCT)
		}
	}
	for _, p := range q.Protocols {
		if !registeredProtocol(p) {
			return badRequest("unknown protocol %q (registered: %v)", p, sim.ProtocolKinds())
		}
	}
	if len(q.Pointers) > maxSweepPoints {
		return badRequest("pointers lists %d points, max %d", len(q.Pointers), maxSweepPoints)
	}
	for _, p := range q.Pointers {
		if p < 1 || p > s.cfg.MaxCores {
			return badRequest("ackwise pointer count %d out of range [1, %d]", p, s.cfg.MaxCores)
		}
	}
	if len(q.CoreCounts) > maxSweepPoints {
		return badRequest("core_counts lists %d points, max %d", len(q.CoreCounts), maxSweepPoints)
	}
	for _, c := range q.CoreCounts {
		if c < 1 || c > s.cfg.MaxCores {
			return badRequest("core count %d out of range [1, %d]", c, s.cfg.MaxCores)
		}
	}
	// The assembled machine configuration must satisfy the simulator's own
	// rules (mesh divisibility, positive cache geometry, registered
	// protocol, classifier parameters, ...).
	if err := s.requestConfig(q).Validate(); err != nil {
		return badRequest("invalid configuration: %v", err)
	}
	return nil
}

// Sweep-size and threshold caps, so one request cannot schedule an
// unbounded batch.
const (
	maxSweepPoints = 32
	maxPCT         = 128
)

// registeredProtocol reports whether name is a registered protocol kind.
func registeredProtocol(name string) bool {
	for _, k := range sim.ProtocolKinds() {
		if string(k) == name {
			return true
		}
	}
	return false
}

// requestOptions maps the request onto experiment options: geometry,
// spec, benchmark subset, the server's session/parallelism and the
// execution context. Config overrides, when present, are folded into an
// explicit base configuration — the result normalizes into exactly the
// fingerprints the equivalent direct experiments.Options produces.
func (s *Server) requestOptions(ctx context.Context, q *Request) experiments.Options {
	o := s.options(ctx)
	o.Cores = q.Cores
	o.MeshWidth = q.MeshWidth
	o.Scale = q.Scale
	o.Seed = q.Seed
	o.Benchmarks = q.Benchmarks
	if q.Config != nil {
		cfg := s.requestConfig(q)
		o.Config = &cfg
	}
	return o
}

// requestConfig assembles the request's full machine configuration: the
// experiment-layer base (Table 1 with the functional checker off) plus
// the request's overrides.
func (s *Server) requestConfig(q *Request) sim.Config {
	o := s.options(context.Background())
	o.Cores = q.Cores
	o.MeshWidth = q.MeshWidth
	cfg := o.BaseConfig()
	q.Config.apply(&cfg)
	return cfg
}
