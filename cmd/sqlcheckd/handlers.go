package main

// HTTP handlers and the serving configuration. The mux wires three
// layers around the analysis endpoints: a panic-recovery wrapper (a
// handler or rule panic becomes a 500 and a counter, never a daemon
// crash), hardened request decoding (bounded bodies, unknown-field
// rejection), and the bounded admission controller (admission.go).
// Admitted requests run under a per-request deadline so a wedged or
// oversized analysis returns 504 instead of holding a slot forever.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sqlcheck"
)

// ServerConfig bounds the daemon's serving behavior. The zero value
// of any field but MaxQueue means its default; DefaultServerConfig
// returns the fully resolved defaults.
type ServerConfig struct {
	// MaxInflight bounds concurrently analyzing requests (<= 0 means
	// twice GOMAXPROCS, minimum 4).
	MaxInflight int
	// MaxQueue bounds requests waiting for an inflight slot (< 0 means
	// 64; 0 means no waiting room, so a request that finds every slot
	// busy is shed at once). Requests past the queue are shed with 429.
	MaxQueue int
	// QueueWait caps how long one request may wait queued (<= 0 means
	// 2s); a request queued longer is shed with 429.
	QueueWait time.Duration
	// RequestTimeout is the per-request analysis deadline (<= 0 means
	// 60s); an analysis past it returns 504.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (<= 0 means 8 MiB); larger
	// bodies are refused with 413.
	MaxBodyBytes int64
}

// DefaultServerConfig returns the daemon's default serving bounds.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		MaxInflight:    defaultMaxInflight(),
		MaxQueue:       64,
		QueueWait:      2 * time.Second,
		RequestTimeout: 60 * time.Second,
		MaxBodyBytes:   8 << 20,
	}
}

func defaultMaxInflight() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	return n
}

// resolved fills unset fields with defaults. MaxQueue zero is a
// valid explicit choice — no waiting room, shed the moment every
// inflight slot is busy — so only negative values resolve to the
// default.
func (c ServerConfig) resolved() ServerConfig {
	d := DefaultServerConfig()
	if c.MaxInflight <= 0 {
		c.MaxInflight = d.MaxInflight
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = d.MaxQueue
	}
	if c.QueueWait <= 0 {
		c.QueueWait = d.QueueWait
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	return c
}

// serveStats counts serving-level fault handling, rendered as
// sqlcheck_panics_total and sqlcheck_request_timeouts_total.
var serveStats struct {
	panics   atomic.Int64
	timeouts atomic.Int64
}

// apiServer holds one daemon's serving state: the shared checker,
// the resolved config, and the admission controller.
type apiServer struct {
	checker *sqlcheck.Checker
	cfg     ServerConfig
	adm     *admission
}

// NewHandler builds the HTTP mux with default serving bounds;
// exported for tests.
func NewHandler(checker *sqlcheck.Checker) http.Handler {
	return NewHandlerConfig(checker, DefaultServerConfig())
}

// NewHandlerConfig builds the HTTP mux with explicit serving bounds.
func NewHandlerConfig(checker *sqlcheck.Checker, cfg ServerConfig) http.Handler {
	cfg = cfg.resolved()
	s := &apiServer{
		checker: checker,
		cfg:     cfg,
		adm:     newAdmission(cfg.MaxInflight, cfg.MaxQueue, cfg.QueueWait),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/api/rules", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, sqlcheck.Rules())
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	// Database registry: load a fixture once, analyze it from any
	// number of batch requests. Info reads go through a snapshot so
	// they never race with DML on the live handle.
	mux.HandleFunc("GET /api/databases", s.handleListDatabases)
	mux.HandleFunc("POST /api/databases/{name}", s.handleRegister)
	mux.HandleFunc("POST /api/databases/{name}/exec", s.handleExec)
	mux.HandleFunc("GET /api/databases/{name}", s.handleGetDatabase)
	mux.HandleFunc("DELETE /api/databases/{name}", s.handleDeleteDatabase)
	mux.HandleFunc("/api/check", s.handleCheck)
	return recoverPanics(mux)
}

// recoverPanics converts a handler panic into a 500 and a counter
// instead of killing the daemon's connection goroutine (and, under
// http.Server semantics, leaving the client with a reset). Rule
// panics never reach here — the engine isolates them per workload —
// so a nonzero sqlcheck_panics_total means a daemon bug.
func recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				serveStats.panics.Add(1)
				// Best effort: if the handler already wrote, this is a
				// no-op on the status line.
				writeJSON(w, http.StatusInternalServerError, ErrorResponse{
					Error: fmt.Sprintf("internal error: %v", p),
				})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// MetricsResponse is the JSON /metrics document: the engine snapshot
// with the serving-layer families alongside.
type MetricsResponse struct {
	sqlcheck.Metrics
	// Admission is the admission controller's state (bounds,
	// occupancy, shed counters, queue-wait histogram).
	Admission AdmissionStats `json:"admission"`
	// Panics counts handler panics recovered into 500s; Timeouts
	// counts requests that hit the per-request deadline (504s).
	Panics   int64 `json:"panics"`
	Timeouts int64 `json:"request_timeouts"`
	// Runtime is the Go runtime's cumulative allocation and GC
	// counters.
	Runtime RuntimeStats `json:"go_runtime"`
}

func (s *apiServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := MetricsResponse{
		Metrics:   s.checker.Metrics(),
		Admission: s.adm.Stats(),
		Panics:    serveStats.panics.Load(),
		Timeouts:  serveStats.timeouts.Load(),
		Runtime:   readRuntimeStats(),
	}
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, m)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writePrometheus(w, m)
}

// decodeRequest reads one bounded JSON body into v. The body is
// capped at MaxBodyBytes (413 past it) and unknown fields are
// rejected (400 naming the field), so a client typo fails loudly
// instead of silently analyzing with defaults. Returns false with the
// response already written on any failure.
func (s *apiServer) decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
				Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
			})
			return false
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "malformed JSON: " + err.Error()})
		return false
	}
	// One JSON document per request: trailing content is a client bug
	// (two concatenated payloads), not data to ignore.
	if dec.More() {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "malformed JSON: trailing data after request object"})
		return false
	}
	return true
}

// admit runs the admission controller for tenant and writes the 429
// with Retry-After when the request is shed. On true the caller must
// call release when done.
func (s *apiServer) admit(w http.ResponseWriter, r *http.Request, tenant string) (release func(), ok bool) {
	release, reason := s.adm.acquire(r.Context(), tenant)
	switch reason {
	case admitOK:
		return release, true
	case admitCanceled:
		// Client gone while queued; nothing to write.
		return nil, false
	}
	msg := "server overloaded"
	switch reason {
	case shedQueueFull:
		msg = "server overloaded: admission queue full"
	case shedQueueWait:
		msg = "server overloaded: queued past wait cap"
	case shedTenant:
		msg = "server overloaded: tenant over fair share"
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterSeconds()))
	writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: msg})
	return nil, false
}

// requestContext derives the per-request analysis deadline.
func (s *apiServer) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// writeCheckError maps analysis errors to responses. A canceled
// client context means the client went away mid-analysis: nothing is
// written (and nothing should be logged as a client error). A
// deadline hit on the server's per-request timeout — while the client
// is still waiting — is 504. A workload naming an unregistered
// database is 404; an unknown rule ID in a workload's rule filter —
// and everything else — is the client's malformed request (400).
func (s *apiServer) writeCheckError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil {
		serveStats.timeouts.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{
			Error: fmt.Sprintf("analysis exceeded the %s request timeout; partial work was discarded and its slots released", s.cfg.RequestTimeout),
		})
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	if errors.Is(err, sqlcheck.ErrUnknownDatabase) {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: err.Error()})
		return
	}
	if errors.Is(err, sqlcheck.ErrRulePanic) {
		// A single-workload request hit a panicking rule: that is the
		// server's bug (a bad registered rule), not the client's.
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
}

func (s *apiServer) handleListDatabases(w http.ResponseWriter, r *http.Request) {
	resp := DatabaseListResponse{Databases: []DatabaseInfo{}}
	for _, name := range s.checker.RegisteredDatabases() {
		if db := s.checker.RegisteredDatabase(name); db != nil {
			resp.Databases = append(resp.Databases, databaseInfo(name, db))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *apiServer) handleRegister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req RegisterRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Fixture) == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "fixture required"})
		return
	}
	release, ok := s.admit(w, r, name)
	if !ok {
		return
	}
	defer release()
	db := sqlcheck.NewDatabase(name)
	if err := db.ExecScript(req.Fixture); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "fixture: " + err.Error()})
		return
	}
	if err := s.checker.RegisterDatabase(name, db); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, sqlcheck.ErrDatabaseExists) {
			status = http.StatusConflict
		}
		writeJSON(w, status, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, databaseInfo(name, db))
}

func (s *apiServer) handleExec(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req ExecRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "sql required"})
		return
	}
	release, ok := s.admit(w, r, name)
	if !ok {
		return
	}
	defer release()
	db := s.checker.RegisteredDatabase(name)
	if db == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown database %q", name)})
		return
	}
	if err := db.ExecScript(req.SQL); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "exec: " + err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, databaseInfo(name, db))
}

func (s *apiServer) handleGetDatabase(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	db := s.checker.RegisteredDatabase(name)
	if db == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown database %q", name)})
		return
	}
	writeJSON(w, http.StatusOK, databaseInfo(name, db))
}

func (s *apiServer) handleDeleteDatabase(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.checker.UnregisterDatabase(name) {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown database %q", name)})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// checkTenant is the admission-fairness identity of a check request:
// the first registered database name it targets, or the anonymous
// bucket. Decoding happens before admission — the body is already
// size-bounded, and the tenant lives inside it.
func checkTenant(req *CheckRequest) string {
	for i := range req.Workloads {
		if req.Workloads[i].DB != "" {
			return req.Workloads[i].DB
		}
	}
	return ""
}

func (s *apiServer) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return
	}
	var req CheckRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	if msg := checkShapeError(&req); msg != "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: msg})
		return
	}
	release, ok := s.admit(w, r, checkTenant(&req))
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestContext(r)
	defer cancel()
	switch {
	case req.Query != "":
		report, err := s.checker.CheckSQLContext(ctx, req.Query)
		if err != nil {
			s.writeCheckError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, report)
	case len(req.Queries) > 0:
		reports, err := s.checker.CheckBatch(ctx, req.Queries)
		s.writeBatch(w, r, reports, err)
	default:
		workloads := make([]sqlcheck.Workload, len(req.Workloads))
		for i, wr := range req.Workloads {
			cw := sqlcheck.Workload{SQL: wr.SQL, DBName: wr.DB, SampleSize: wr.SampleSize, Rules: wr.Rules}
			if wr.Fixture != "" {
				db := sqlcheck.NewDatabase(fmt.Sprintf("fixture-%d", i))
				if err := db.ExecScript(wr.Fixture); err != nil {
					writeJSON(w, http.StatusBadRequest, ErrorResponse{
						Error: fmt.Sprintf("workload %d fixture: %v", i, err),
					})
					return
				}
				cw.DB = db
			}
			workloads[i] = cw
		}
		reports, err := s.checker.CheckWorkloads(ctx, workloads)
		s.writeBatch(w, r, reports, err)
	}
}

// checkShapeError says why a check request can never succeed, or
// returns "": it must name exactly one of query, queries and
// workloads, and no workload may set both fixture and db. It runs
// before admission, so such a request is refused with 400 instead of
// taking a slot or being shed with a 429 that invites a retry.
func checkShapeError(req *CheckRequest) string {
	given := 0
	for _, set := range []bool{req.Query != "", len(req.Queries) > 0, len(req.Workloads) > 0} {
		if set {
			given++
		}
	}
	switch {
	case given == 0:
		return "missing query"
	case given > 1:
		return "provide exactly one of query, queries, or workloads"
	}
	for i, wr := range req.Workloads {
		if wr.Fixture != "" && wr.DB != "" {
			return fmt.Sprintf("workload %d: fixture and db are mutually exclusive", i)
		}
	}
	return ""
}

// writeBatch renders a batch result. Per-workload failures (a
// panicking custom rule) do not fail the batch: the response is still
// 200 with the successful reports in place, null at each failed slot,
// and one errors entry per failure — the isolation contract, so one
// bad workload cannot take down its batchmates. Batch-level failures
// route through writeCheckError as before.
func (s *apiServer) writeBatch(w http.ResponseWriter, r *http.Request, reports []*sqlcheck.Report, err error) {
	if err != nil {
		werrs := sqlcheck.WorkloadErrors(err)
		if len(werrs) == 0 {
			s.writeCheckError(w, r, err)
			return
		}
		resp := BatchResponse{Reports: reports}
		for _, we := range werrs {
			resp.Errors = append(resp.Errors, WorkloadErrorInfo{Workload: we.Workload, Error: we.Err.Error()})
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Reports: reports})
}

// databaseInfo summarizes a database from a snapshot, so rendering is
// consistent even while statements execute on the live handle.
func databaseInfo(name string, db *sqlcheck.Database) DatabaseInfo {
	snap := db.Snapshot()
	info := DatabaseInfo{Name: name, Tables: []TableInfo{}}
	for _, t := range snap.Tables() {
		info.Tables = append(info.Tables, TableInfo{Name: t, Rows: snap.RowCount(t)})
	}
	return info
}
