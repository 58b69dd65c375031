package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"tcsim"
	"tcsim/client"
	"tcsim/internal/experiments"
	"tcsim/internal/obs"
	"tcsim/internal/tracestore"
)

// Config assembles a Server.
type Config struct {
	Engine EngineConfig
	// JobTTL is how long finished async jobs remain pollable (0 = 10m).
	JobTTL time.Duration
	// MaxBodyBytes caps request bodies (0 = 1 MiB).
	MaxBodyBytes int64
	// Logger receives the daemon's structured log: one access line per
	// request plus job lifecycle events (accepted, cache hit, started,
	// completed, failed, rejected), each carrying the request ID the
	// response echoed in X-Request-ID. Nil discards everything.
	Logger *slog.Logger
	// Service names this process in spans and flight dumps ("" =
	// "tcserved"). Cluster selfcheck nodes set their node name here so a
	// collated span tree shows which node served each attempt.
	Service string
	// FlightDir, when set, enables automatic flight-recorder dumps: a
	// 5xx response overwrites flight-<service>-last5xx.json there.
	// SIGQUIT dumps (wired in cmd/tcserved) land there too.
	FlightDir string
}

// Server is the tcserved HTTP front end: job lifecycle, sweeps, pass
// registry, health, and metrics. Create with New, mount via Handler,
// stop with Shutdown.
type Server struct {
	cfg     Config
	engine  *Engine
	jobs    *jobStore
	sweeps  *experiments.Runner
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the observability middleware
	log     *slog.Logger
	flight  *obs.FlightRecorder
	spans   *obs.Spanner // the flight recorder's span starter

	// baseCtx parents async job execution so Shutdown can cancel what
	// the drain deadline abandons.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	// draining flips readiness (GET /healthz/ready) to 503 the moment a
	// graceful shutdown begins — before any work stops being accepted —
	// so balancers and the cluster gateway stop routing first. Liveness
	// (GET /healthz) stays green for the whole drain.
	draining atomic.Bool
}

// New builds a server.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	sweeps := experiments.NewRunner(0)
	// Sweeps must capture and replay through the same store as jobs, or
	// a multi-engine process would leak traces across nodes via the
	// shared store and falsify per-node CDN accounting.
	sweeps.Store = cfg.Engine.Store
	service := cfg.Service
	if service == "" {
		service = "tcserved"
	}
	flight := obs.NewFlightRecorder(service, 0, 0)
	s := &Server{
		cfg:        cfg,
		engine:     NewEngine(cfg.Engine),
		jobs:       newJobStore(cfg.JobTTL),
		sweeps:     sweeps,
		log:        log,
		flight:     flight,
		spans:      flight.Spanner(),
		baseCtx:    ctx,
		cancelBase: cancel,
	}
	s.engine.spans = s.spans
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	mux.HandleFunc("GET /v1/passes", s.handlePasses)
	mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	mux.HandleFunc("GET /v1/traces/{sha}", s.handleTrace) // also serves HEAD
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /healthz/ready", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handlePrometheus)
	mux.HandleFunc("GET /debug/spans", s.handleDebugSpans)
	mux.HandleFunc("GET /debug/flight", s.handleDebugFlight)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleDebugTrace)
	s.mux = mux
	s.handler = s.withObs(mux)
	return s
}

// Handler returns the HTTP handler to serve: the route mux wrapped in
// the request-ID / access-log middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// Engine exposes the simulation engine (selfcheck and tests).
func (s *Server) Engine() *Engine { return s.engine }

// Flight exposes the server's flight recorder (SIGQUIT dumps, selfcheck
// failure dumps, tests).
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// dumpFlightOn5xx preserves the recorder's state after a server error.
// It overwrites a fixed file name so a 5xx storm keeps the latest
// context without growing the directory; no FlightDir means no dump.
func (s *Server) dumpFlightOn5xx() {
	if s.cfg.FlightDir == "" {
		return
	}
	name := "flight-" + s.flight.Service() + "-last5xx.json"
	if path, err := s.flight.DumpToFile(s.cfg.FlightDir, name); err != nil {
		s.log.Warn("flight dump failed", "error", err.Error())
	} else {
		s.log.Info("flight recorder dumped", "path", path, "trigger", "5xx")
	}
}

// JobCount reports how many async jobs the store currently holds.
func (s *Server) JobCount() int { return s.jobs.len() }

// BeginDrain flips readiness to 503 without refusing any work: jobs
// already in flight and new submissions both still run. Call it first
// on SIGTERM — before http.Server.Shutdown — so the gateway and any LB
// stop routing to this node while it is still fully serving; then close
// the listener and call Shutdown. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether a graceful drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the server: no new work is admitted, every admitted
// job (sync and async) finishes or ctx expires, then background state
// is released. Call http.Server.Shutdown first so no requests arrive
// concurrently; async jobs survive their submitting request, which is
// why the engine drain is separate.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	err := s.engine.Drain(ctx)
	if err != nil {
		// Deadline hit with jobs still running: cancel them so their
		// goroutines exit promptly rather than leaking.
		s.cancelBase()
	}
	s.jobs.close()
	return err
}

// --- responses ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, status, client.ErrorBody{Error: client.APIError{
			Code: code, Message: msg, RetryAfterSecs: secs}})
		return
	}
	writeJSON(w, status, client.ErrorBody{Error: client.APIError{Code: code, Message: msg}})
}

// writeRunError maps an engine/run error onto the wire.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	var br *badRequest
	switch {
	case errors.As(err, &br):
		writeError(w, http.StatusBadRequest, "invalid_argument", br.msg, 0)
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, "queue_full",
			"all workers busy and the wait queue is full", s.engine.RetryAfter())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "draining",
			"server is shutting down", 2*time.Second)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "timeout", err.Error(), 0)
	case isCancel(err):
		// Client went away; the status is moot but keep the map total.
		writeError(w, 499, "canceled", err.Error(), 0)
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), 0)
	}
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument",
			"malformed request body: "+err.Error(), 0)
		return false
	}
	return true
}

// --- handlers ---

// handleSubmit implements POST /v1/jobs. Sync by default; ?async=1
// returns 202 with a pollable job. Both paths admit before running, so
// a saturated daemon rejects with 429 at submission time and async
// submissions can never grow an unbounded backlog.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rid := requestID(r.Context())
	var req client.JobRequest
	if !s.decode(w, r, &req) {
		return
	}
	spec, err := resolveSpec(&req, s.engine.Limits())
	if err != nil {
		s.log.Warn("job rejected", "trace_id", rid, "request_id", rid,
			"span_id", obs.SpanFrom(r.Context()).ID(), "error", err.Error())
		s.flight.Notef("job rejected request_id=%s err=%v", rid, err)
		s.writeRunError(w, err)
		return
	}
	key := spec.Key()
	s.engine.met.accepted.Add(1)
	async := r.URL.Query().Get("async") == "1"

	// Cache hits are free: serve them without consuming admission, so a
	// full queue never rejects an already-computed answer.
	if res, ok := s.engine.Cached(key); ok {
		s.engine.met.completed.Add(1)
		s.spans.Event(r.Context(), "cache-lookup", "outcome", "hit", "key", key)
		j := s.jobs.create(key, rid)
		j.finish(res, true, nil, 0, s.jobs.ttl)
		s.log.Info("job cache hit", "trace_id", rid, "request_id", rid,
			"span_id", obs.SpanFrom(r.Context()).ID(), "job_id", j.id,
			"key", key, "workload", spec.Workload)
		s.flight.Notef("job cache hit request_id=%s job=%s key=%s", rid, j.id, key)
		status := http.StatusOK
		if async {
			status = http.StatusAccepted
		}
		writeJSON(w, status, j.wire())
		return
	}

	release, err := s.engine.Admit()
	if err != nil {
		s.log.Warn("job rejected", "trace_id", rid, "request_id", rid,
			"span_id", obs.SpanFrom(r.Context()).ID(), "key", key, "error", err.Error())
		s.flight.Notef("job rejected request_id=%s key=%s err=%v", rid, key, err)
		s.writeRunError(w, err)
		return
	}

	j := s.jobs.create(key, rid)
	s.log.Info("job accepted", "trace_id", rid, "request_id", rid,
		"span_id", obs.SpanFrom(r.Context()).ID(), "job_id", j.id,
		"key", key, "workload", spec.Workload, "insts", spec.Insts, "async", async)
	s.flight.Notef("job accepted request_id=%s job=%s key=%s async=%v", rid, j.id, key, async)
	if async {
		// Detach the request's span identity onto the server's base
		// context: the job's spans still parent under the submitting
		// request, but its cancellation is the server's, not the
		// already-answered request's.
		ctx := obs.Detach(s.baseCtx, r.Context())
		go func() {
			defer release()
			s.runJob(ctx, rid, j, spec)
		}()
		writeJSON(w, http.StatusAccepted, j.wire())
		return
	}
	defer release()
	if err := s.runJob(r.Context(), rid, j, spec); err != nil {
		s.writeRunError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.wire())
}

// runJob drives one admitted job through the engine and records the
// outcome on the job record. rid is the submitting request's ID, kept
// explicitly because async jobs outlive their request context.
func (s *Server) runJob(ctx context.Context, rid string, j *job, spec jobSpec) error {
	j.setRunning()
	// Async jobs run on a detached context: no active span, only the
	// submitting request's remote span identity. Log under that parent so
	// the lifecycle lines still name a span in the trace.
	sid := obs.SpanFrom(ctx).ID()
	if sid == "" {
		if rc, ok := obs.RemoteFrom(ctx); ok {
			sid = rc.SpanID
		}
	}
	s.log.Info("job started", "trace_id", rid, "request_id", rid, "span_id", sid,
		"job_id", j.id, "key", j.key)
	s.flight.Notef("job started request_id=%s job=%s key=%s", rid, j.id, j.key)
	t0 := time.Now()
	res, cached, err := s.engine.Run(ctx, spec)
	wall := time.Since(t0)
	j.finish(res, cached, err, wall, s.jobs.ttl)
	if err != nil {
		s.engine.met.failed.Add(1)
		s.log.Error("job failed", "trace_id", rid, "request_id", rid, "span_id", sid,
			"job_id", j.id, "key", j.key, "wall", wall.Round(time.Microsecond), "error", err.Error())
		s.flight.Notef("job failed request_id=%s job=%s key=%s err=%v", rid, j.id, j.key, err)
		return err
	}
	s.engine.met.completed.Add(1)
	s.log.Info("job completed", "trace_id", rid, "request_id", rid, "span_id", sid,
		"job_id", j.id, "key", j.key,
		"cached", cached, "wall", wall.Round(time.Microsecond), "ipc", res.IPC)
	s.flight.Notef("job completed request_id=%s job=%s key=%s cached=%v", rid, j.id, j.key, cached)
	return nil
}

// handleGetJob implements GET /v1/jobs/{id}.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no job %q (unknown, or expired after %v)", id, s.jobs.ttl), 0)
		return
	}
	writeJSON(w, http.StatusOK, j.wire())
}

// handleSweep implements POST /v1/sweeps: resolve the cross product,
// fan out over the shared experiments runner (which deduplicates and
// memoizes by config hash), aggregate.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req client.SweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	cells, err := resolveSweep(&req, s.engine.Limits())
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	// A sweep occupies one admission token end to end: its internal
	// parallelism is bounded by the experiments runner's own pool, but
	// the daemon still bounds how many sweeps stack up.
	release, err := s.engine.Admit()
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	defer release()
	s.engine.met.sweepCells.Add(uint64(len(cells)))
	resp, err := runSweep(r.Context(), s.sweeps, cells)
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePasses implements GET /v1/passes from the pass registry.
func (s *Server) handlePasses(w http.ResponseWriter, r *http.Request) {
	var out []client.Pass
	for _, p := range tcsim.Passes() {
		out = append(out, client.Pass{Name: p.Name, Desc: p.Desc, Default: p.Default})
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePolicies implements GET /v1/policies from the replacement-policy
// registry, mirroring /v1/passes.
func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	var out []client.Policy
	for _, p := range tcsim.Policies() {
		out = append(out, client.Policy{Name: p.Name, Desc: p.Desc, Default: p.Default, Oracle: p.Oracle})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealth implements GET /healthz — liveness. It answers 200 for
// as long as the process serves HTTP, including during a graceful
// drain: a draining node is alive, just not ready.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady implements GET /healthz/ready — readiness. It flips to
// 503 the moment BeginDrain is called, while submissions still succeed,
// so routing stops strictly before work does.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining",
			"server is draining and should receive no new work", 2*time.Second)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// ContentTypeTrace is the media type of serialized trace bodies served
// by GET /v1/traces/{sha} — the PR 5 versioned on-disk format (magic
// "TCTR", version, uvarint header, varint columns, CRC-32 trailer).
const ContentTypeTrace = "application/x-tctrace"

// handleTrace implements GET and HEAD /v1/traces/{program-sha256}: the
// trace CDN. The path component is the hex sha256 of the built program
// image (content-addressed: a recompiled workload gets a new address),
// and the required budget query parameter selects the retirement bound
// the stream was captured under. The body is re-validated before a
// single byte leaves this node; a corrupt on-disk file is an error, not
// a response. HEAD answers availability without counting a serve.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	sha := r.PathValue("sha")
	name, ok := tracestore.WorkloadByHash(sha)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no bundled workload builds a program with hash %q", sha), 0)
		return
	}
	budget, err := strconv.ParseUint(r.URL.Query().Get("budget"), 10, 64)
	if err != nil || budget == 0 {
		writeError(w, http.StatusBadRequest, "invalid_argument",
			"budget query parameter must be a positive integer", 0)
		return
	}
	raw, err := s.traceStore().ExportBytes(name, budget, r.Method != http.MethodHead)
	switch {
	case errors.Is(err, tracestore.ErrUnavailable):
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("trace for %s@%d is not resident on this node", name, budget), 0)
		return
	case err != nil:
		// A persisted trace failed validation: refuse to serve it and say
		// so loudly — the peer will capture live instead.
		s.log.Warn("trace export rejected", "request_id", requestID(r.Context()),
			"workload", name, "budget", budget, "error", err.Error())
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), 0)
		return
	}
	w.Header().Set("Content-Type", ContentTypeTrace)
	w.Header().Set("X-Trace-Workload", name)
	w.Header().Set("X-Trace-Budget", strconv.FormatUint(budget, 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	w.Write(raw)
}

// traceStore returns the store this server's jobs and trace CDN run
// against: the engine's own when configured, else the process-wide one.
func (s *Server) traceStore() *tcsim.TraceStore {
	if st := s.engine.Store(); st != nil {
		return st
	}
	return tracestore.Shared()
}
