// Command sqlcheckd serves sqlcheck over HTTP — the REST interface of
// the paper's §7:
//
//	POST /api/check   {"query": "INSERT INTO Users VALUES (1,'foo')"}
//	  -> full JSON report (findings, fixes, query ranking)
//	POST /api/check   {"queries": ["<workload 1>", "<workload 2>"]}
//	  -> {"reports": [...]} — one report per workload, in order
//	POST /api/check   {"workloads": [{"sql": "...", "fixture": "<DDL+DML>"}]}
//	  -> {"reports": [...]} — database-attached analysis: each
//	     workload's fixture script builds an in-memory database, so
//	     the data rules (paper §4.2) run over HTTP too
//	POST /api/check   {"workloads": [{"sql": "...", "db": "<name>"}]}
//	  -> {"reports": [...]} — registry-attached analysis: the
//	     workload resolves a database registered via /api/databases,
//	     so its fixture executed once at registration, not once per
//	     request; profiling runs over a copy-on-write snapshot, so
//	     concurrent DML on the registered database never skews an
//	     in-flight report (404 when the name is unknown)
//	POST /api/check   {"workloads": [{"sql": "...", "db": "<name>", "rules": ["order-by-rand"]}]}
//	  -> {"reports": [...]} — rule-scoped analysis: detection runs
//	     only the listed rules, and the analysis phases are planned
//	     from the selection (a query-rule-only workload takes no
//	     snapshot and profiles no tables; 400 on unknown rule IDs)
//	POST   /api/databases/{name}  {"fixture": "<DDL+DML>"}
//	  -> 201 + table/row summary; 409 when the name exists,
//	     400 when the fixture fails
//	POST   /api/databases/{name}/exec  {"sql": "<DDL+DML>"}
//	  -> 200 + table/row summary — executes statements against the
//	     registered database's live handle (the remote-tenant write
//	     path; durable when -data-dir is set); 404 unknown name,
//	     400 on statement errors
//	GET    /api/databases         -> all registered databases
//	GET    /api/databases/{name}  -> one database (404 unknown)
//	DELETE /api/databases/{name}  -> 204 (404 unknown)
//	GET  /api/rules   -> the anti-pattern catalog with per-rule
//	                     metadata: scopes, admitted statement kinds,
//	                     resource needs, Table 1 impact flags
//	GET  /metrics     -> observability: Prometheus text format, or
//	                     JSON with ?format=json — cache hit rate,
//	                     pool saturation, per-phase latency
//	                     histograms, skipped-phase counters
//	GET  /healthz     -> "ok"
//
// All requests share one Checker, so concurrent checks draw from a
// single bounded worker pool and parsed-AST cache instead of
// oversubscribing the host; client disconnects cancel the analysis.
//
// With -data-dir the registry is durable: registrations and every
// statement executed through /api/databases/{name}/exec are logged to
// a write-ahead log under that directory and recovered on the next
// start, with periodic checkpoints bounding replay. SIGTERM/SIGINT
// drains in-flight requests, takes a final checkpoint, and exits 0.
//
// Serving is overload-safe: a bounded admission layer caps
// concurrently analyzing requests (-max-inflight) and waiting
// requests (-max-queue, each at most -queue-wait); everything past
// the bounds is shed with 429 and a Retry-After estimated from the
// observed service rate, with per-tenant fairness so one database
// name cannot starve the rest. Each admitted analysis runs under
// -request-timeout (504 on expiry), bodies are bounded by
// -max-body-bytes (413 past it), unknown JSON fields are rejected
// (400), and handler panics become 500s plus sqlcheck_panics_total —
// never a daemon crash. See the sqlcheck_admission_* /metrics family
// and README's overload-tuning section.
//
// Flags: -addr (default :8686), -mode, -weights, -concurrency,
// -cache-bytes, -report-cache-bytes, -data-dir, -checkpoint-every,
// -page-cache-bytes, -shutdown-timeout, -max-inflight, -max-queue,
// -queue-wait, -request-timeout, -max-body-bytes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sqlcheck"
)

func main() {
	var (
		addr        = flag.String("addr", ":8686", "listen address")
		mode        = flag.String("mode", "inter", "analysis mode: inter or intra")
		weights     = flag.String("weights", "c1", "ranking weights: c1 or c2")
		concurrency = flag.Int("concurrency", 0, "analysis worker pool size (0 = GOMAXPROCS)")
		cacheBytes  = flag.Int64("cache-bytes", 64<<20, "parsed-statement cache budget in estimated resident bytes")
		reportBytes = flag.Int64("report-cache-bytes", 32<<20, "memoized-report cache budget in estimated resident bytes (the serving fast path)")
		dataDir     = flag.String("data-dir", "", "durable registry directory: WAL + checkpoints, recovered on start (empty = in-memory only)")
		ckptEvery   = flag.Int("checkpoint-every", 0, "WAL records between automatic checkpoints (0 = default 1024, negative disables)")
		pageBytes   = flag.Int64("page-cache-bytes", 0, "resident-byte budget for registered databases' row pages; cold pages spill to disk and fault back on access (0 = unbounded, all pages stay in memory)")
		drainWait   = flag.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown deadline for draining in-flight requests")
		maxInflight = flag.Int("max-inflight", defaultMaxInflight(), "max concurrently analyzing requests; excess queues, then sheds with 429")
		maxQueue    = flag.Int("max-queue", 64, "max requests waiting for an analysis slot before shedding with 429 (0 = shed immediately when all slots busy)")
		queueWait   = flag.Duration("queue-wait", 2*time.Second, "max time one request may wait queued before shedding with 429")
		reqTimeout  = flag.Duration("request-timeout", 60*time.Second, "per-request analysis deadline; 504 on expiry")
		maxBody     = flag.Int64("max-body-bytes", 8<<20, "max request body bytes; 413 past it")
	)
	flag.Parse()

	opts := sqlcheck.Options{
		Concurrency:      *concurrency,
		ParseCacheBytes:  *cacheBytes,
		ReportCacheBytes: *reportBytes,
		DataDir:          *dataDir,
		CheckpointEvery:  *ckptEvery,
		PageCacheBytes:   *pageBytes,
	}
	if *mode == "intra" {
		opts.Mode = sqlcheck.IntraQuery
	}
	if *weights == "c2" {
		opts.Weights = sqlcheck.Hybrid
	}
	checker, err := sqlcheck.Open(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sqlcheckd: opening durable registry: %v\n", err)
		os.Exit(1)
	}
	if *dataDir != "" {
		rec := checker.Recovery()
		log.Printf("sqlcheckd: durable registry at %s: recovered %d database(s) (%d from checkpoint, %d WAL records replayed)",
			*dataDir, rec.Databases, rec.FromCheckpoint, rec.Replayed)
		if rec.Warning != "" {
			log.Printf("sqlcheckd: recovery warning: %s", rec.Warning)
		}
	}

	// Listen before announcing, and announce the resolved address: with
	// -addr 127.0.0.1:0 the kernel picks the port, and supervisors (and
	// the crash-recovery e2e) parse it from this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sqlcheckd: %v\n", err)
		os.Exit(1)
	}
	cfg := ServerConfig{
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		RequestTimeout: *reqTimeout,
		MaxBodyBytes:   *maxBody,
	}.resolved()
	// Server-level timeouts harden the listener against slow or stuck
	// clients (slowloris header dribbling, dead reads): independent of
	// admission, no connection may hold a serving goroutine forever.
	// WriteTimeout covers the whole handler, so it sits above the
	// per-request analysis deadline plus queueing and response time.
	srv := &http.Server{
		Handler:           NewHandlerConfig(checker, cfg),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      cfg.RequestTimeout + cfg.QueueWait + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// Graceful shutdown: on SIGTERM/SIGINT stop accepting, drain
	// in-flight requests up to the deadline (draining the analysis
	// worker pools with them), then checkpoint and close the WAL so the
	// next start replays nothing. Exit 0 on a clean drain. The handler
	// is installed before the address is announced: a supervisor may
	// send SIGTERM as soon as it has read that line.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	log.Printf("sqlcheckd listening on %s", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		log.Printf("sqlcheckd: received %s, draining in-flight requests", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("sqlcheckd: drain deadline exceeded, closing anyway: %v", err)
		}
		cancel()
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "sqlcheckd: %v\n", err)
			os.Exit(1)
		}
	case err := <-serveErr:
		// Serve failed on its own (listener error) — not a shutdown.
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "sqlcheckd: %v\n", err)
			os.Exit(1)
		}
	}
	if err := checker.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "sqlcheckd: closing durable registry: %v\n", err)
		os.Exit(1)
	}
	log.Printf("sqlcheckd: shutdown complete")
}

// CheckRequest is the POST /api/check payload: a single query script,
// a batch of SQL-only workloads, or a batch of database-attached
// workloads (exactly one of the three).
type CheckRequest struct {
	Query     string            `json:"query,omitempty"`
	Queries   []string          `json:"queries,omitempty"`
	Workloads []WorkloadRequest `json:"workloads,omitempty"`
}

// WorkloadRequest is one database-attached workload: the SQL under
// analysis plus either an inline fixture script or the name of a
// registered database (at most one of the two), so schema and data
// rules see real tuples.
type WorkloadRequest struct {
	SQL string `json:"sql"`
	// Fixture is executed statement by statement into a fresh
	// embedded database; errors fail the request with 400.
	Fixture string `json:"fixture,omitempty"`
	// DB names a database registered via POST /api/databases/{name};
	// its fixture is not re-executed, and analysis profiles a
	// copy-on-write snapshot of its current state. Unknown names fail
	// the request with 404.
	DB string `json:"db,omitempty"`
	// SampleSize bounds data-analysis sampling for this workload
	// (0 = server default).
	SampleSize int `json:"sample_size,omitempty"`
	// Rules restricts this workload to the listed rule IDs (see
	// GET /api/rules for the catalog). Unknown IDs fail the request
	// with 400. The analysis phases are planned from the selection:
	// a query-rule-only workload against a registered database takes
	// no snapshot and profiles no tables (watch the
	// sqlcheck_phase_skipped_total counters on /metrics).
	Rules []string `json:"rules,omitempty"`
}

// RegisterRequest is the POST /api/databases/{name} payload.
type RegisterRequest struct {
	// Fixture is the DDL+DML script that builds the database, executed
	// exactly once at registration.
	Fixture string `json:"fixture"`
}

// ExecRequest is the POST /api/databases/{name}/exec payload.
type ExecRequest struct {
	// SQL is a DDL+DML script executed statement by statement against
	// the registered database's live handle, under its single-writer
	// lock. Execution stops at the first failing statement; prior
	// statements stay applied (and logged, when the registry is
	// durable) — per-statement atomicity, not script atomicity.
	SQL string `json:"sql"`
}

// TableInfo summarizes one table of a registered database.
type TableInfo struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
}

// DatabaseInfo summarizes one registered database.
type DatabaseInfo struct {
	Name   string      `json:"name"`
	Tables []TableInfo `json:"tables"`
}

// DatabaseListResponse is returned by GET /api/databases.
type DatabaseListResponse struct {
	Databases []DatabaseInfo `json:"databases"`
}

// BatchResponse is returned for batch requests: one report per
// workload, in request order. A workload that failed in isolation (a
// panicking custom rule) leaves null at its report slot and adds an
// Errors entry; the batch itself still succeeds with 200.
type BatchResponse struct {
	Reports []*sqlcheck.Report  `json:"reports"`
	Errors  []WorkloadErrorInfo `json:"errors,omitempty"`
}

// WorkloadErrorInfo names one failed workload inside an otherwise
// successful batch.
type WorkloadErrorInfo struct {
	// Workload is the failed workload's index in the request.
	Workload int `json:"workload"`
	// Error is the failure, e.g. a rule panic naming the rule.
	Error string `json:"error"`
}

// ErrorResponse is returned for malformed requests.
type ErrorResponse struct {
	Error string `json:"error"`
}
