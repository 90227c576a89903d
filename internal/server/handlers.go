package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"lacc/internal/cluster"
	"lacc/internal/experiments"
	"lacc/internal/sim"
	"lacc/internal/store"
	"lacc/internal/workloads"
)

// routes wires the endpoint table. Method-qualified patterns (Go 1.22
// ServeMux) give free 405s on wrong methods.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/admin/flush", s.handleFlush)
	s.mux.HandleFunc("GET /v1/peer/get/{key}", s.handlePeerGet)
	s.mux.HandleFunc("PUT /v1/peer/put/{key}", s.handlePeerPut)
	for name, exec := range executors {
		pattern := "POST /v1/experiments/" + name
		if name == "run" {
			pattern = "POST /v1/run"
		}
		s.mux.HandleFunc(pattern, s.experimentHandler(name, exec))
	}
}

// execFunc executes one experiment request and returns the result object
// to encode. o carries the session, context and (for SSE) the progress
// callback; implementations must thread it into every experiment call.
type execFunc func(ctx context.Context, s *Server, q *Request, o experiments.Options) (any, error)

// executors maps endpoint names to executions. "run" is special-cased to
// the /v1/run pattern by routes.
var executors = map[string]execFunc{
	"run":       execRun,
	"pct-sweep": execPCTSweep,
	"protocols": execProtocols,
	"ackwise":   execAckwise,
	"victim":    execVictim,
	"scaling":   execScaling,
	"figures":   execFigures,
}

// execRun simulates one workload under one configuration (validate
// guarantees Workload is set and known).
func execRun(ctx context.Context, s *Server, q *Request, o experiments.Options) (any, error) {
	return experiments.Baseline(o, q.Workload, s.requestConfig(q))
}

// execPCTSweep runs the Figures 8-11 sweep grid.
func execPCTSweep(ctx context.Context, s *Server, q *Request, o experiments.Options) (any, error) {
	return experiments.RunPCTSweep(o, q.PCTs)
}

// execProtocols runs the cross-protocol comparison.
func execProtocols(ctx context.Context, s *Server, q *Request, o experiments.Options) (any, error) {
	var kinds []sim.ProtocolKind
	for _, p := range q.Protocols {
		kinds = append(kinds, sim.ProtocolKind(p))
	}
	return experiments.ProtocolComparison(o, kinds)
}

// execAckwise runs the ACKwise-p pointer sweep.
func execAckwise(ctx context.Context, s *Server, q *Request, o experiments.Options) (any, error) {
	return experiments.AckwiseComparison(o, q.Pointers)
}

// execVictim runs the victim-replication three-way comparison.
func execVictim(ctx context.Context, s *Server, q *Request, o experiments.Options) (any, error) {
	return experiments.VictimReplication(o)
}

// execScaling runs the machine-size scaling study. The default series
// must respect the server's machine-size cap exactly like explicit
// core_counts (which validate() already bounds).
func execScaling(ctx context.Context, s *Server, q *Request, o experiments.Options) (any, error) {
	counts := q.CoreCounts
	if len(counts) == 0 {
		counts = experiments.DefaultScalingCores
		for _, c := range counts {
			if c > s.cfg.MaxCores {
				return nil, badRequest("default core_counts %v exceed this server's max cores %d; pass core_counts explicitly", counts, s.cfg.MaxCores)
			}
		}
	}
	return experiments.PerformanceScaling(o, counts)
}

// execFigures regenerates one paper artifact by name (validate admits
// only the names in figures).
func execFigures(ctx context.Context, s *Server, q *Request, o experiments.Options) (any, error) {
	return figures[q.Figure](ctx, s, q, o)
}

// figures maps each /v1/experiments/figures artifact name to its
// execution; validate and execFigures both read it.
var figures = map[string]execFunc{
	"fig1":     execFig1And2,
	"fig2":     execFig1And2,
	"fig1and2": execFig1And2,
	"fig11": func(ctx context.Context, s *Server, q *Request, o experiments.Options) (any, error) {
		sw, err := experiments.RunPCTSweep(o, experiments.Fig11PCTs)
		if err != nil {
			return nil, err
		}
		return sw.Fig11(), nil
	},
	"fig12": func(ctx context.Context, s *Server, q *Request, o experiments.Options) (any, error) {
		return experiments.Fig12(o)
	},
	"fig13": func(ctx context.Context, s *Server, q *Request, o experiments.Options) (any, error) {
		return experiments.Fig13(o)
	},
	"fig14": func(ctx context.Context, s *Server, q *Request, o experiments.Options) (any, error) {
		return experiments.Fig14(o)
	},
	"storage": func(ctx context.Context, s *Server, q *Request, o experiments.Options) (any, error) {
		return experiments.Storage(s.requestConfig(q)), nil
	},
	"storage-scaling": func(ctx context.Context, s *Server, q *Request, o experiments.Options) (any, error) {
		return experiments.StorageScaling(q.CoreCounts), nil
	},
}

// execFig1And2 runs the baseline utilization histograms of Figures 1 and 2.
func execFig1And2(ctx context.Context, s *Server, q *Request, o experiments.Options) (any, error) {
	return experiments.Fig1And2(o)
}

// experimentHandler adapts an execFunc into the full request lifecycle:
// decode, validate, single-flight coalescing (or SSE streaming), bounded
// admission, execution, canonical encoding.
func (s *Server) experimentHandler(name string, exec execFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.stats.requests.Add(1)
		q, err := decodeRequest(r)
		if err == nil {
			err = s.validate(name, q)
		}
		if err != nil {
			s.writeError(w, err)
			return
		}
		format := r.URL.Query().Get("format")
		if format != "" && format != "json" && format != "text" {
			s.writeError(w, badRequest("unknown format %q (want json or text)", format))
			return
		}
		if wantsSSE(r) {
			if format == "text" {
				s.writeError(w, badRequest("format=text cannot be combined with SSE streaming (the result event is JSON)"))
				return
			}
			if _, ok := w.(http.Flusher); !ok {
				// Without a Flusher every event would sit in the server's
				// write buffer until the handler returned — a "stream"
				// delivered all at once, after the experiment finished. Fail
				// the upgrade before committing the SSE content type so the
				// client gets a plain JSON error instead of a silent hang.
				s.writeError(w, &apiError{status: http.StatusInternalServerError,
					msg: "streaming unsupported: the connection's response writer cannot flush (retry without SSE)"})
				return
			}
			s.serveSSE(w, r, q, exec)
			return
		}

		key := name + "\x00" + format + "\x00" + q.canonicalKey()
		c, ctx, leading := s.single.join(key)
		if !leading {
			s.stats.coalesced.Add(1)
			select {
			case <-c.done:
				s.single.leave(c)
				s.writeCall(w, c)
			case <-r.Context().Done():
				// Client gone before the shared execution finished; give
				// up our interest (the last one out cancels the work).
				s.single.leave(c)
			}
			return
		}

		// Leader: if the client disconnects mid-execution, hand interest
		// management to the watcher so surviving coalesced clients keep
		// the execution alive.
		stop := context.AfterFunc(r.Context(), func() { s.single.leave(c) })
		resp, err := s.execute(ctx, q, exec, format, nil)
		s.single.finish(key, c, resp, err)
		if stop() {
			s.single.leave(c)
		}
		s.writeCall(w, c)
	}
}

// execute admits and runs one experiment execution, encoding its
// response. progress, when non-nil, receives the experiment layer's
// progress callbacks (SSE).
func (s *Server) execute(ctx context.Context, q *Request, exec execFunc, format string, progress func(done, total int)) (*response, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	return s.executeAdmitted(ctx, q, exec, format, progress)
}

// errRunTimeout is the typed error for executions canceled by
// Config.MaxRunTime: 503 (the request was valid; this server's budget was
// not enough) with a stable "timeout" code. It doubles as the timeout
// context's cancellation cause, which is how the deadline is told apart
// from an ordinary client disconnect.
var errRunTimeout = &apiError{status: http.StatusServiceUnavailable, code: "timeout",
	msg: "experiment exceeded the server's max run time and was canceled"}

// executeAdmitted is execute's body once an admission token is held (the
// SSE path acquires before committing its response status, so a
// saturated server can still answer 429). It applies the server's
// per-execution deadline and recovers executor panics into errors — the
// recovery must happen at this level, below single-flight, so a panicked
// leader still publishes an outcome to its coalesced waiters instead of
// leaving them blocked on a call that will never finish.
func (s *Server) executeAdmitted(ctx context.Context, q *Request, exec execFunc, format string, progress func(done, total int)) (resp *response, err error) {
	s.stats.executed.Add(1)
	if s.cfg.MaxRunTime > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, s.cfg.MaxRunTime, errRunTimeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			s.stats.panics.Add(1)
			s.cfg.Logf("server: panic executing experiment: %v", p)
			resp, err = nil, &apiError{status: http.StatusInternalServerError,
				code: "panic", msg: fmt.Sprintf("internal error (experiment execution panicked: %v)", p)}
		}
	}()
	start := time.Now()
	defer func() { s.stats.noteExecDuration(time.Since(start)) }()
	o := s.requestOptions(ctx, q)
	o.Progress = progress
	v, err := exec(ctx, s, q, o)
	if err != nil {
		if ctx.Err() != nil {
			if errors.Is(context.Cause(ctx), errRunTimeout) {
				s.stats.timeouts.Add(1)
				return nil, errRunTimeout
			}
			s.stats.canceledByCtx.Add(1)
		}
		return nil, err
	}
	if format == "text" {
		return renderText(v)
	}
	body, err := EncodeCanonical(v)
	if err != nil {
		return nil, fmt.Errorf("encoding response: %w", err)
	}
	return &response{status: http.StatusOK, contentType: "application/json", body: body}, nil
}

// renderText renders a result through its paper-table Render method.
func renderText(v any) (*response, error) {
	rend, ok := v.(interface{ Render(io.Writer) error })
	if !ok {
		return nil, badRequest("format=text is not supported for this result type")
	}
	var sb strings.Builder
	if err := rend.Render(&sb); err != nil {
		return nil, fmt.Errorf("rendering: %w", err)
	}
	return &response{status: http.StatusOK, contentType: "text/plain; charset=utf-8",
		body: []byte(sb.String())}, nil
}

// response is one encoded handler result.
type response struct {
	status      int
	contentType string
	body        []byte
}

// writeCall writes a finished single-flight call's outcome.
func (s *Server) writeCall(w http.ResponseWriter, c *sfCall) {
	if c.err != nil {
		s.writeError(w, c.err)
		return
	}
	w.Header().Set("Content-Type", c.resp.contentType)
	w.WriteHeader(c.resp.status)
	w.Write(c.resp.body)
}

// writeError maps an error to its HTTP response. Cancellation produces
// 499 (client closed request; the nginx convention) — normally unseen,
// since the client is gone.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var ae *apiError
	if errors.As(err, &ae) {
		status = ae.status
	} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		status = 499
	}
	if status == http.StatusTooManyRequests {
		// rejected is its own counter; tell the client when a slot is
		// plausibly free instead of leaving it to guess a retry cadence.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	} else {
		s.stats.errors.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(errorPayload(err))
	w.Write(append(body, '\n'))
}

// errorPayload is the canonical error body, shared by plain JSON responses
// and terminal SSE error events: always an "error" message, plus a stable
// "code" when the error carries one (timeout, panic).
func errorPayload(err error) map[string]string {
	p := map[string]string{"error": err.Error()}
	var ae *apiError
	if errors.As(err, &ae) && ae.code != "" {
		p["code"] = ae.code
	}
	return p
}

// StoreHealth is the durable-tier section of /v1/healthz.
type StoreHealth struct {
	// Mode is "disabled" (no store configured), "durable" (store healthy)
	// or "degraded" (the store absorbed failures — quarantined segments,
	// I/O errors, checksum mismatches — and the affected results recompute
	// on demand; the server keeps serving either way).
	Mode string `json:"mode"`
	// Segments, Bytes and Entries describe the current footprint.
	Segments int   `json:"segments,omitempty"`
	Bytes    int64 `json:"bytes,omitempty"`
	Entries  int   `json:"entries,omitempty"`
	// Quarantined counts segments set aside by recovery; LastRecovery is
	// the last Open scan's one-line outcome.
	Quarantined  uint64 `json:"quarantined,omitempty"`
	LastRecovery string `json:"last_recovery,omitempty"`
}

// storeHealth snapshots the current session's durable tier.
func (s *Server) storeHealth() StoreHealth {
	st := s.session.Load().Store()
	if st == nil {
		return StoreHealth{Mode: "disabled"}
	}
	mode := "durable"
	if !st.Healthy() {
		mode = "degraded"
	}
	sst := st.Stats()
	return StoreHealth{
		Mode:         mode,
		Segments:     sst.Segments,
		Bytes:        sst.Bytes,
		Entries:      sst.Entries,
		Quarantined:  sst.Quarantined,
		LastRecovery: sst.LastRecovery,
	}
}

// handleHealthz reports liveness plus each optimization tier's mode.
// Neither a degraded store nor a degraded cluster fails the health check
// — the server serves through both by recomputing — but the modes flip
// to "degraded" so operators see which peers are down and which breakers
// are open.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"store":   s.storeHealth(),
		"cluster": s.clusterHealth(),
	})
}

// WorkloadInfo is one /v1/workloads catalog entry (Table 2).
type WorkloadInfo struct {
	// Name is the canonical identifier accepted in workload/benchmark
	// request fields.
	Name string `json:"name"`
	// Label is the display label used in the paper's figures.
	Label string `json:"label"`
	// Suite is the benchmark suite (SPLASH-2, PARSEC, ...).
	Suite string `json:"suite"`
	// PaperSize is the problem size the paper evaluated.
	PaperSize string `json:"paper_size"`
	// DefaultSize is this reproduction's problem size at scale 1.0.
	DefaultSize string `json:"default_size"`
}

// handleWorkloads serves the benchmark catalog.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	all := workloads.All()
	out := make([]WorkloadInfo, len(all))
	for i, wl := range all {
		out[i] = WorkloadInfo{
			Name:        wl.Name,
			Label:       wl.Label,
			Suite:       wl.Suite,
			PaperSize:   wl.PaperSize,
			DefaultSize: wl.DefaultSize,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// Stats is the /v1/stats response: the server's request/admission
// counters plus the underlying session's cache effectiveness.
type Stats struct {
	// Requests counts API requests routed to any handler.
	Requests uint64 `json:"requests"`
	// CoalescedRequests counts requests that joined a byte-identical
	// in-flight execution instead of executing themselves.
	CoalescedRequests uint64 `json:"coalesced_requests"`
	// Executed counts experiment executions actually performed.
	Executed uint64 `json:"executed"`
	// Rejected counts 429 admission rejections.
	Rejected uint64 `json:"rejected"`
	// Errors counts non-429 error responses.
	Errors uint64 `json:"errors"`
	// CanceledByClient counts executions abandoned because every
	// interested client disconnected.
	CanceledByClient uint64 `json:"canceled_by_client"`
	// SSEStreams counts progress streams served.
	SSEStreams uint64 `json:"sse_streams"`
	// Flushes counts admin cache flushes.
	Flushes uint64 `json:"flushes"`
	// Timeouts counts executions canceled by the server's MaxRunTime
	// budget (each answered 503 with code "timeout").
	Timeouts uint64 `json:"timeouts"`
	// Panics counts handler or executor panics recovered into 500s; any
	// nonzero value is a bug worth a report, but none of them killed the
	// process.
	Panics uint64 `json:"panics"`

	// InFlight is the number of executions holding an admission slot now;
	// PeakInFlight is its lifetime high-water mark and never exceeds
	// MaxInFlight. Queued is the number of requests currently waiting for
	// a slot (at most MaxQueue).
	InFlight     int64 `json:"in_flight"`
	PeakInFlight int64 `json:"peak_in_flight"`
	Queued       int64 `json:"queued"`
	// MaxInFlight and MaxQueue echo the admission configuration.
	MaxInFlight int `json:"max_in_flight"`
	MaxQueue    int `json:"max_queue"`

	// Session is the shared result cache's hit/coalesce/miss snapshot.
	Session experiments.SessionStats `json:"session"`
	// Store is the durable result store's full snapshot (segments, bytes,
	// hits, recovery outcome); nil when serving without one.
	Store *store.Stats `json:"store,omitempty"`
	// Cluster is the peer tier's snapshot (per-peer traffic and breaker
	// state); nil when serving without one. PeerGets and PeerPuts count
	// this node's side of the peer protocol: fetches it answered from its
	// local store and replicas it accepted into it.
	Cluster  *cluster.Stats `json:"cluster,omitempty"`
	PeerGets uint64         `json:"peer_gets,omitempty"`
	PeerPuts uint64         `json:"peer_puts,omitempty"`
	// CorpusBuilds counts workload trace generations process-wide (each
	// distinct (benchmark, cores, scale, seed) builds once).
	CorpusBuilds uint64 `json:"corpus_builds"`
}

// snapshotStats collects the current Stats.
func (s *Server) snapshotStats() Stats {
	var storeStats *store.Stats
	if st := s.session.Load().Store(); st != nil {
		sst := st.Stats()
		storeStats = &sst
	}
	var clusterStats *cluster.Stats
	if s.cfg.Cluster != nil {
		cst := s.cfg.Cluster.Stats()
		clusterStats = &cst
	}
	return Stats{
		Requests:          s.stats.requests.Load(),
		CoalescedRequests: s.stats.coalesced.Load(),
		Executed:          s.stats.executed.Load(),
		Rejected:          s.stats.rejected.Load(),
		Errors:            s.stats.errors.Load(),
		CanceledByClient:  s.stats.canceledByCtx.Load(),
		SSEStreams:        s.stats.sseStreams.Load(),
		Flushes:           s.stats.flushes.Load(),
		Timeouts:          s.stats.timeouts.Load(),
		Panics:            s.stats.panics.Load(),
		InFlight:          s.stats.inFlight.Load(),
		PeakInFlight:      s.stats.peakInFlight.Load(),
		Queued:            s.queued.Load(),
		MaxInFlight:       s.cfg.MaxInFlight,
		MaxQueue:          s.cfg.MaxQueue,
		Session:           s.session.Load().Stats(),
		Store:             storeStats,
		Cluster:           clusterStats,
		PeerGets:          s.stats.peerGets.Load(),
		PeerPuts:          s.stats.peerPuts.Load(),
		CorpusBuilds:      workloads.CorpusBuilds(),
	}
}

// handleStats serves the observability counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	writeJSON(w, http.StatusOK, s.snapshotStats())
}

// handleFlush drops the session result cache (in-flight batches keep the
// session they started with) and the process-wide corpus cache, bounding
// memory on a long-lived server. The lower tiers are deliberately kept:
// the replacement session attaches to the same store and the same peer
// cluster, so a flush leaves the server exactly restart-warm — memory
// cold, disk and peers hot — and repeating a flushed sweep re-decodes
// results instead of re-simulating them. The response reports the stats
// snapshot taken just before the flush.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	before := s.snapshotStats()
	old := s.session.Load()
	s.session.Store(experiments.NewSessionWithTiers(old.Store(), old.Peers(), s.cfg.Logf))
	workloads.FlushCorpora()
	s.stats.flushes.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"flushed": true, "before": before})
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := EncodeCanonical(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}
