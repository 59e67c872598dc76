// Package sqlcheck is a Go reimplementation of SQLCheck (Dintyala,
// Narechania, Arulraj — SIGMOD 2020): a toolchain that detects SQL
// anti-patterns with combined query and data analysis, ranks them by
// estimated impact on performance, maintainability, and accuracy, and
// suggests rule-based fixes.
//
// The one-call entry point:
//
//	report, err := sqlcheck.New().CheckSQL(`
//	    CREATE TABLE t (id INT PRIMARY KEY, total FLOAT);
//	    SELECT * FROM t ORDER BY RAND() LIMIT 5;
//	`)
//	for _, f := range report.Findings {
//	    fmt.Println(f.Rule, f.Message, f.Fix.Guidance)
//	}
//
// For data analysis (the paper's §4.2), attach a live database built
// with the embedded engine:
//
//	db := sqlcheck.NewDatabase("app")
//	db.MustExec("CREATE TABLE tenants (id INT PRIMARY KEY, user_ids TEXT)")
//	db.MustExec("INSERT INTO tenants (id, user_ids) VALUES (1, 'U1,U2,U3')")
//	report, err := sqlcheck.New().CheckApplication(workloadSQL, db)
package sqlcheck

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sqlcheck/internal/appctx"
	"sqlcheck/internal/core"
	"sqlcheck/internal/fix"
	"sqlcheck/internal/rank"
	"sqlcheck/internal/rules"
	"sqlcheck/internal/sqltoken"
	"sqlcheck/internal/storage/wal"
)

// Mode selects intra-query-only or full inter-query analysis.
type Mode int

// Analysis modes (paper §4.1 / §8.1).
const (
	// InterQuery builds the full application context (default).
	InterQuery Mode = iota
	// IntraQuery applies rules to each statement in isolation.
	IntraQuery
)

// WeightProfile selects a ranking-model weight configuration.
type WeightProfile int

// Weight profiles (paper Figure 7a).
const (
	// ReadHeavy is the paper's C1: analytical workloads.
	ReadHeavy WeightProfile = iota
	// Hybrid is the paper's C2: balanced read/write workloads.
	Hybrid
)

// Options configures a Checker. The zero value is usable and matches
// the paper's defaults.
type Options struct {
	// Mode selects intra- or inter-query analysis.
	Mode Mode
	// MinConfidence drops findings below the threshold (default 0.5).
	MinConfidence float64
	// GodTableColumns is the god-table threshold (default 10).
	GodTableColumns int
	// TooManyJoins is the join-count threshold (default 4).
	TooManyJoins int
	// Weights selects the ranking configuration (default ReadHeavy).
	Weights WeightProfile
	// RankQueriesByCount switches the inter-query ranking component
	// from total score to finding count (paper §5.2).
	RankQueriesByCount bool
	// Rules restricts detection to the listed rule IDs (nil = all).
	// The filter is resolved once, at admission, into a compiled rule
	// set: disabled rules never reach dispatch gates or detectors,
	// and the Checker plans analysis phases from the set's declared
	// needs — a selection that consumes no data profiles skips table
	// profiling (and the admission snapshot) for database-attached
	// workloads. The skip is observable in fixes too: without schema
	// reflection, fixes that expand columns from a registered schema
	// (SELECT * expansion, implicit-column INSERT rewrites) degrade
	// to textual guidance; include a schema-needing rule or leave the
	// filter empty to keep concrete rewrites. Unknown IDs fail every
	// check with ErrUnknownRule. Per-workload Workload.Rules
	// overrides this filter.
	Rules []string
	// SampleSize bounds data-analysis sampling per table (default
	// 1000 rows).
	SampleSize int
	// Concurrency bounds how many workloads analyze at once across
	// every check made through the Checker — CheckSQL,
	// CheckApplication, CheckBatch, and CheckWorkloads share one
	// worker pool. Each analyzed workload holds one slot and runs its
	// statements in order; its per-table data profiling also uses
	// slots that are idle at the time. Report-cache hits take no slot.
	// 0 uses GOMAXPROCS; 1 analyzes one workload at a time.
	Concurrency int
	// CacheBytes bounds the Checker's caches by estimated resident
	// bytes; <= 0 selects the default (120 MiB). It is split 8:4:1:2
	// among parsed statements, finished reports, script fingerprints and
	// table profiles, so the default gives them 64, 32, 8 and 16 MiB. A
	// statement repeated across tenants, requests, and batches parses
	// once per Checker. The report cache is the serving fast path above
	// the other caches: reports are keyed by the workload's normalized
	// script fingerprint (literals, whitespace, and keyword case hashed
	// away) together with the database identity and state version, the
	// compiled rule selection, and the analysis configuration; a hit
	// additionally requires the statement texts to match the memoized
	// workload byte for byte, because detector messages and several
	// rules read literal values. A repeated workload against an
	// unchanged database is then served in microseconds without parsing,
	// profiling, or rule evaluation — and any DML on the database moves
	// its version, so a stale report never hits and the next analysis of
	// the workload replaces it in place. Served reports are deep copies:
	// mutating one never corrupts the cache. Workloads opt out per
	// request with Workload.NoReportCache; Metrics().ReportCache reports
	// the cache's counters.
	CacheBytes int64
	// NoCoalesce disables coalescing. By default each distinct cold
	// workload is analyzed once however many copies arrive: workloads
	// sharing a report identity (same normalized fingerprint,
	// byte-identical statement texts, same database state and
	// configuration) with an analysis already in flight — a duplicate
	// in the same CheckWorkloads batch or an identical request from a
	// concurrent one — join it, wait without holding a worker slot, and
	// are served its report. Coalescing is output-transparent: reports
	// stay byte-identical to the uncoalesced path, so the knob exists
	// for benchmarking the raw pipeline and for debugging. Workloads
	// that set Workload.NoReportCache never coalesce; their contract is
	// a from-scratch analysis even for a byte-identical repeat. Avoided
	// pipeline runs are counted in Metrics().Coalesce.
	NoCoalesce bool
	// DataDir, when non-empty, makes the named-database registry
	// durable: registrations, every mutating statement executed
	// against a registered database, and unregistrations are recorded
	// in a write-ahead log under this directory, and the registry is
	// rebuilt from it on the next start. Durability requires the Open
	// constructor — it recovers eagerly and can fail — so New panics
	// when DataDir is set rather than silently running in-memory.
	// Reads (checks, snapshots, memoized report serving) never touch
	// the log. The default empty value keeps the library pure
	// in-memory.
	DataDir string
	// CheckpointEvery tunes the durable registry's checkpoint cadence:
	// after this many WAL records a background checkpoint serializes
	// every tenant and prunes the log, bounding restart replay to
	// O(records since last checkpoint). 0 uses the default (1024);
	// negative disables automatic checkpoints (Checkpoint/Close only).
	// Ignored without DataDir.
	CheckpointEvery int
	// PageCacheBytes, when > 0, bounds the resident heap bytes of
	// registered databases' row storage: cold row pages spill to
	// per-table page files and fault back on access, so the registry
	// holds more fixture data than the budget while the hot working
	// set stays in memory. Reports are byte-identical to the
	// all-resident configuration — spilling moves pages, never changes
	// analysis results. Spill files live under DataDir/spill when
	// DataDir is set, else in a process-private temp directory; they
	// are transient state, wiped on startup and removed on Close (the
	// WAL, not the spill files, is the durable copy). Databases
	// attached inline to a single workload (Workload.DB) are never
	// spill-managed — only registered (or recovered) databases are.
	// Sizing guidance: the budget is a working-set target, not a hard
	// cap — pages pinned by in-flight scans stay resident regardless,
	// so peak usage is roughly the budget plus the pages the largest
	// concurrent profiling pass touches. Zero disables spilling
	// entirely (every page stays heap-resident, the prior behavior).
	PageCacheBytes int64
}

// CacheStats is a point-in-time snapshot of the parse or profile cache
// (Metrics().Cache, Metrics().ProfileCache): lookup counters, eviction
// count, and estimated resident bytes against the configured bound.
type CacheStats = core.CacheStats

// ReportCacheStats is a point-in-time snapshot of a report cache:
// hit/miss/eviction counters, the variant-miss count (fingerprint
// matched but statement texts differed — same query shape, different
// literals), resident bytes against the bound, and the
// fingerprint-cardinality gauge (distinct normalized query shapes
// resident).
type ReportCacheStats = core.ReportCacheStats

// Checker runs the detect → rank → fix pipeline. A Checker is safe
// for concurrent use: all checks share one bounded worker pool and
// the Checker's caches, so a server can hold a single Checker and
// serve overlapping requests without oversubscribing the host. The
// caches belong to the Checker and share Options.CacheBytes: parsed
// statements, finished reports, and table profiles keyed by (table
// identity, sampling options) and tagged with the table version they
// profiled, so a registered database whose data has not changed
// re-checks without re-profiling, and after a write the table's
// re-profiled version replaces the old one in place.
type Checker struct {
	opts Options

	engineOnce sync.Once
	eng        *core.Engine

	// recovery summarizes what Open reconstructed from Options.DataDir
	// (zero value for in-memory Checkers).
	recovery RecoverySummary
}

// New builds a Checker. With no argument it uses defaults; with one
// argument it uses the given options. Durable options require Open:
// New cannot return an error, so rather than deferring a recovery
// failure to the first check — or worse, silently dropping
// durability — it panics when Options.DataDir is set.
func New(opts ...Options) *Checker {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.DataDir != "" {
		panic("sqlcheck: Options.DataDir requires the Open constructor (New cannot surface recovery errors)")
	}
	return &Checker{opts: o}
}

// Open builds a Checker like New but initializes eagerly, which is
// what durable registries need: when Options.DataDir is set, Open
// replays the write-ahead log and re-registers every database a
// previous process had registered before returning. The recovered
// databases are live handles with fresh origin IDs, so reports
// memoized by a previous incarnation are structurally unreachable —
// a restart can never serve a stale report. Open with an empty
// DataDir is equivalent to New and never fails.
//
// Callers owning a durable Checker should Close it on shutdown; see
// Recovery for what was reconstructed.
func Open(opts Options) (*Checker, error) {
	c := &Checker{opts: opts}
	c.engineOnce.Do(func() {
		c.eng = core.NewEngine(c.coreOptions(), c.opts.Concurrency)
	})
	if opts.DataDir != "" {
		summary, err := c.eng.OpenDurability(opts.DataDir, wal.Config{
			CheckpointEvery: opts.CheckpointEvery,
		})
		if err != nil {
			return nil, err
		}
		c.recovery = summary
	}
	return c, nil
}

// Recovery reports what Open reconstructed from Options.DataDir:
// tenant counts, the number of WAL records replayed, and a warning
// when replay stopped at a corrupt record. Zero value for in-memory
// Checkers.
func (c *Checker) Recovery() RecoverySummary { return c.recovery }

// Checkpoint forces a synchronous checkpoint of the durable registry:
// every registered database's state is serialized and superseded WAL
// segments are pruned, so the next Open replays only records logged
// after this call. A no-op (nil) for in-memory Checkers.
func (c *Checker) Checkpoint() error { return c.engine().Checkpoint() }

// Close takes a final checkpoint and closes the write-ahead log, so
// the next Open recovers without replay, and removes the page cache's
// spill files when Options.PageCacheBytes was set. A no-op (nil) for
// in-memory Checkers without a page cache. Callers should stop
// submitting Exec traffic first: statements racing Close may fail
// with a durability error once the log is closed, and spilled pages
// are unreadable after it.
func (c *Checker) Close() error { return c.engine().Close() }

// Finding is one detected anti-pattern with its fix.
type Finding struct {
	// Rule is the stable rule ID (e.g. "multi-valued-attribute").
	Rule string `json:"rule"`
	// Name is the human-readable rule name.
	Name string `json:"name"`
	// Category is one of "logical design", "physical design",
	// "query", "data".
	Category string `json:"category"`
	// Query is the statement index the finding refers to, or -1 for
	// schema/data findings.
	Query int `json:"query"`
	// Table and Column locate the finding when applicable.
	Table  string `json:"table,omitempty"`
	Column string `json:"column,omitempty"`
	// Message is the diagnosis.
	Message string `json:"message"`
	// Confidence is the detector's confidence in (0, 1].
	Confidence float64 `json:"confidence"`
	// Score is the ranking model's impact score; findings are sorted
	// by it, highest first.
	Score float64 `json:"score"`
	// Span locates the finding's statement in the submitted SQL, when
	// the finding refers to one (nil for schema/data findings and on
	// the sequential paths). On a report served from the ReportCache
	// the span is rebound to the text actually submitted, so offsets
	// stay correct even when statement layout differs from the run
	// that populated the cache.
	Span *Span `json:"span,omitempty"`
	// Fix is the suggested repair.
	Fix Fix `json:"fix"`
}

// Span is a byte range in the submitted SQL script: input[Start:End]
// is the statement text, and Line is the 1-based line of its first
// token.
type Span struct {
	Start int `json:"start"`
	End   int `json:"end"`
	Line  int `json:"line"`
}

// Fix is a suggested repair (paper §6): statement rewrites, new
// statements, or textual guidance.
type Fix struct {
	// Rewrites are transformed statements, parallel to the original
	// statement list.
	Rewrites []Rewrite `json:"rewrites,omitempty"`
	// NewStatements are additional DDL/DML to run.
	NewStatements []string `json:"new_statements,omitempty"`
	// Guidance is the textual fix when no unambiguous rewrite exists.
	Guidance string `json:"guidance,omitempty"`
	// ImpactedQueries lists other statement indexes the fix forces
	// changes to.
	ImpactedQueries []int `json:"impacted_queries,omitempty"`
}

// Rewrite is one transformed statement.
type Rewrite struct {
	Query    int    `json:"query"`
	Original string `json:"original"`
	Fixed    string `json:"fixed"`
}

// Automated reports whether the fix has executable output.
func (f Fix) Automated() bool {
	return len(f.Rewrites) > 0 || len(f.NewStatements) > 0
}

// QueryReport aggregates the findings of one statement for the
// inter-query ranking component.
type QueryReport struct {
	// Query is the statement index (-1 groups schema/data findings).
	Query int `json:"query"`
	// SQL is the statement text ("" for the schema group).
	SQL string `json:"sql,omitempty"`
	// Count and TotalScore aggregate the statement's findings.
	Count      int     `json:"count"`
	TotalScore float64 `json:"total_score"`
}

// Report is the ranked result of a check.
type Report struct {
	// Findings are ordered by decreasing impact score.
	Findings []Finding `json:"findings"`
	// Queries are ordered by the inter-query ranking component.
	Queries []QueryReport `json:"queries"`
	// Statements is the number of statements analyzed.
	Statements int `json:"statements"`
}

// ByRule returns the findings for one rule ID.
func (r *Report) ByRule(ruleID string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Rule == ruleID {
			out = append(out, f)
		}
	}
	return out
}

// Has reports whether any finding matches the rule ID.
func (r *Report) Has(ruleID string) bool { return len(r.ByRule(ruleID)) > 0 }

// CheckSQL analyzes a SQL script (queries and DDL) without data
// analysis.
func (c *Checker) CheckSQL(sql string) (*Report, error) {
	return c.CheckApplication(sql, nil)
}

// CheckSQLContext is CheckSQL with cancellation: analysis stops early
// and returns the context error when ctx is canceled.
func (c *Checker) CheckSQLContext(ctx context.Context, sql string) (*Report, error) {
	return c.CheckApplicationContext(ctx, sql, nil)
}

// CheckApplication analyzes a SQL workload together with an optional
// live database; with a database attached the data rules run too.
func (c *Checker) CheckApplication(sql string, db *Database) (*Report, error) {
	return c.CheckApplicationContext(context.Background(), sql, db)
}

// CheckApplicationContext is CheckApplication with cancellation.
func (c *Checker) CheckApplicationContext(ctx context.Context, sql string, db *Database) (*Report, error) {
	if strings.TrimSpace(sql) == "" && db == nil {
		return nil, errors.New("sqlcheck: nothing to analyze")
	}
	reports, err := c.CheckWorkloads(ctx, []Workload{{SQL: sql, DB: db}})
	if err != nil {
		return nil, err
	}
	return reports[0], nil
}

// Workload is one unit of batched analysis: a SQL script — one per
// repository or application, the paper's unit of evaluation — with an
// optional attached database (data rules run when present) and
// optional per-workload profile overrides.
type Workload struct {
	// SQL is the workload's statement script.
	SQL string
	// DB, when non-nil, attaches a database: the data-analysis phase
	// profiles its tables (in parallel, on the Checker's pool) and the
	// data rules run. Analysis snapshots the database at batch
	// admission (copy-on-write, see Database.Snapshot), so attaching
	// the same *Database to several workloads is safe, and statements
	// executed on the handle during analysis do not skew the reports.
	DB *Database
	// DBName analyzes a database previously registered on the Checker
	// with RegisterDatabase, resolving it by name at batch admission;
	// mutually exclusive with DB. Profiling always runs over a
	// snapshot of the registered database, never the live handle.
	// An unknown name fails the batch with ErrUnknownDatabase.
	DBName string
	// SampleSize overrides Options.SampleSize for this workload
	// (0 keeps the Checker's setting).
	SampleSize int
	// ProfileSeed overrides the deterministic sampling seed for this
	// workload (0 keeps the default seed).
	ProfileSeed uint64
	// Rules, when non-empty, replaces the Checker's rule filter for
	// this workload only. The IDs compile into a rule set at batch
	// admission; unknown IDs fail the batch with ErrUnknownRule. The
	// workload's analysis phases are planned from the compiled set:
	// if no selected rule consumes data profiles, the attached (or
	// registry-resolved) database is not profiled, and if none reads
	// the database at all, no snapshot is taken — rule selection is
	// an admission-time plan, not a post-hoc findings filter. A
	// database-free plan also skips schema reflection, so fixes that
	// expand columns from the schema degrade to textual guidance for
	// such workloads (see Options.Rules).
	Rules []string
	// NoReportCache opts this workload out of report memoization: it
	// is analyzed from scratch even on a byte-identical repeat, and its
	// report is not stored. Use it for one-off scripts that would churn
	// the cache, or to force a fresh analysis while diagnosing. The
	// parse and profile caches still apply.
	NoReportCache bool
}

// Registry lookup and registration errors, matched with errors.Is.
// The daemon maps them to HTTP 404 and 409.
var (
	// ErrUnknownDatabase reports a Workload.DBName that resolves to no
	// registered database.
	ErrUnknownDatabase = core.ErrUnknownDatabase
	// ErrDatabaseExists reports a RegisterDatabase call reusing a name.
	ErrDatabaseExists = core.ErrDatabaseExists
	// ErrUnknownRule reports a rule filter (Options.Rules or
	// Workload.Rules) naming a rule ID that is not in the catalog.
	// The daemon maps it to HTTP 400.
	ErrUnknownRule = rules.ErrUnknownRule
	// ErrRulePanic reports a rule detector that panicked during
	// analysis. The panic is recovered and isolated: only the
	// workloads the rule ran on fail (wrapped in WorkloadError by
	// CheckWorkloads), the rest of the batch and the Checker itself
	// keep working. The error text names the rule, scope, and
	// statement.
	ErrRulePanic = core.ErrRulePanic
)

// WorkloadError reports one workload's analysis failure inside an
// otherwise successful batch — today that means a panicking rule
// (ErrRulePanic); batch-level failures (cancellation, unknown
// database or rule IDs) fail the whole CheckWorkloads call instead.
// Match with errors.As, or collect all of them with WorkloadErrors.
type WorkloadError struct {
	// Workload is the failed workload's index in the CheckWorkloads
	// input.
	Workload int
	// Err is the underlying failure; errors.Is(Err, ErrRulePanic)
	// identifies rule panics.
	Err error
}

func (e *WorkloadError) Error() string {
	return fmt.Sprintf("sqlcheck: workload %d: %v", e.Workload, e.Err)
}

func (e *WorkloadError) Unwrap() error { return e.Err }

// WorkloadErrors extracts the per-workload failures from a
// CheckWorkloads error. It returns nil when err is nil or carries no
// WorkloadError (a batch-level failure such as cancellation), and the
// failures in workload order otherwise — callers use it to tell "some
// workloads failed, the rest of the reports are good" from "the batch
// never ran".
func WorkloadErrors(err error) []*WorkloadError {
	if err == nil {
		return nil
	}
	var out []*WorkloadError
	var collect func(error)
	collect = func(err error) {
		if we, ok := err.(*WorkloadError); ok {
			out = append(out, we)
			return
		}
		switch u := err.(type) {
		case interface{ Unwrap() []error }:
			for _, e := range u.Unwrap() {
				collect(e)
			}
		case interface{ Unwrap() error }:
			collect(u.Unwrap())
		}
	}
	collect(err)
	return out
}

// RegisterDatabase makes db available to workloads as DBName=name —
// the fixture-reuse path: load a database once, analyze it from any
// number of batch requests without re-executing its DDL/DML, while
// DML on the live handle keeps flowing. Registering an existing name
// fails with ErrDatabaseExists; unregister it first to replace it.
func (c *Checker) RegisterDatabase(name string, db *Database) error {
	if db == nil {
		return errors.New("sqlcheck: nil database")
	}
	return c.engine().Registry().Register(name, db.inner)
}

// UnregisterDatabase removes a registered database; reports whether
// the name was registered. In-flight workloads holding a snapshot of
// it are unaffected.
func (c *Checker) UnregisterDatabase(name string) bool {
	return c.engine().Registry().Unregister(name)
}

// RegisteredDatabase returns the live handle registered under name,
// or nil. Statements executed on it are visible to workloads admitted
// afterwards (each batch snapshots the current state).
func (c *Checker) RegisteredDatabase(name string) *Database {
	db, ok := c.engine().Registry().Get(name)
	if !ok {
		return nil
	}
	return &Database{inner: db}
}

// RegisteredDatabases returns the registered names, sorted.
func (c *Checker) RegisteredDatabases() []string {
	return c.engine().Registry().Names()
}

// RegistryStats aliases the engine's registry counter snapshot.
type RegistryStats = core.RegistryStats

// CheckWorkloads analyzes independent workloads concurrently on the
// Checker's shared pool and returns one ranked Report per workload in
// input order. Workloads from every concurrent call share the same
// bounded worker pool, one slot per analyzing workload, so batches
// run side by side without oversubscribing the host; reports are
// identical at any Concurrency setting. Each distinct cold workload
// is analyzed, ranked and fixed once, on its slot, and its report
// stored; its duplicates, in this batch or any concurrent one, and
// later report-cache hits are each served a deep copy with spans bound
// to their own text (see Options.NoCoalesce). A blank workload yields
// an empty report rather than failing the batch. The error is non-nil
// for an empty batch, a canceled ctx (in which case it is ctx.Err()),
// a DBName that is not registered (ErrUnknownDatabase), a rule filter
// naming an unknown rule ID (ErrUnknownRule), or a workload setting
// both DB and DBName; those batch-level failures return no reports.
//
// A panicking rule detector, by contrast, fails only the workloads it
// ran on: the reports slice is still returned full-length with nil at
// each failed slot, and the error joins one *WorkloadError per
// failure (unpack with WorkloadErrors). The rest of the batch — and
// the Checker — are unaffected.
func (c *Checker) CheckWorkloads(ctx context.Context, workloads []Workload) ([]*Report, error) {
	if len(workloads) == 0 {
		return nil, errors.New("sqlcheck: no workloads")
	}
	cws := make([]core.Workload, len(workloads))
	for i, w := range workloads {
		cw := core.Workload{SQL: w.SQL, DB: innerDB(w.DB), DBName: w.DBName, Rules: w.Rules, NoMemo: w.NoReportCache}
		if w.SampleSize > 0 || w.ProfileSeed != 0 {
			p := c.engine().ProfileOptions()
			if w.SampleSize > 0 {
				p.SampleSize = w.SampleSize
			}
			if w.ProfileSeed != 0 {
				p.Seed = w.ProfileSeed
			}
			cw.Profile = &p
		}
		cws[i] = cw
	}
	results, err := c.engine().DetectWorkloads(ctx, cws)
	if err != nil {
		return nil, err
	}
	var werrs []error
	reports := make([]*Report, len(results))
	for i, res := range results {
		if res.Err != nil {
			werrs = append(werrs, &WorkloadError{Workload: i, Err: res.Err})
			continue
		}
		rep := res.Report.(*Report)
		if !workloads[i].NoReportCache {
			// Shared with the report cache and every duplicate: serve a
			// deep copy, so no caller's mutation reaches the others.
			rep = cloneReport(rep)
		}
		// Sharers' statement texts are byte-identical, but the layout
		// around them may differ: spans bind to this submission.
		setSpans(rep, res.Script)
		reports[i] = rep
	}
	if len(werrs) > 0 {
		return reports, errors.Join(werrs...)
	}
	return reports, nil
}

// cloneReport deep-copies a report so the shared report and served
// copies never share mutable state.
func cloneReport(r *Report) *Report {
	out := &Report{Statements: r.Statements}
	out.Findings = append([]Finding(nil), r.Findings...)
	for i := range out.Findings {
		f := &out.Findings[i]
		if f.Span != nil {
			s := *f.Span
			f.Span = &s
		}
		f.Fix.Rewrites = append([]Rewrite(nil), f.Fix.Rewrites...)
		f.Fix.NewStatements = append([]string(nil), f.Fix.NewStatements...)
		f.Fix.ImpactedQueries = append([]int(nil), f.Fix.ImpactedQueries...)
	}
	out.Queries = append([]QueryReport(nil), r.Queries...)
	return out
}

// setSpans attaches statement spans from the workload's fingerprinted
// script to every finding that refers to a statement.
func setSpans(r *Report, script *sqltoken.ScriptPrint) {
	if script == nil {
		return
	}
	for i := range r.Findings {
		f := &r.Findings[i]
		if f.Query >= 0 && f.Query < len(script.Stmts) {
			st := script.Stmts[f.Query]
			f.Span = &Span{Start: st.Start, End: st.End, Line: st.Line}
		}
	}
}

// reportMemCost estimates a report's resident bytes for the report
// cache's byte budget: struct overheads plus string payloads.
func reportMemCost(r *Report) int64 {
	cost := int64(256)
	for i := range r.Findings {
		f := &r.Findings[i]
		cost += 192 + int64(len(f.Rule)+len(f.Name)+len(f.Category)+len(f.Table)+len(f.Column)+len(f.Message)+len(f.Fix.Guidance))
		for _, rw := range f.Fix.Rewrites {
			cost += 56 + int64(len(rw.Original)+len(rw.Fixed))
		}
		for _, s := range f.Fix.NewStatements {
			cost += 16 + int64(len(s))
		}
		cost += int64(8 * len(f.Fix.ImpactedQueries))
	}
	for _, q := range r.Queries {
		cost += 48 + int64(len(q.SQL))
	}
	return cost
}

// CheckBatch analyzes independent SQL-only workloads concurrently; it
// is CheckWorkloads over scripts with no attached databases, kept for
// callers that batch plain text.
func (c *Checker) CheckBatch(ctx context.Context, workloads []string) ([]*Report, error) {
	ws := make([]Workload, len(workloads))
	for i, sql := range workloads {
		ws[i] = Workload{SQL: sql}
	}
	return c.CheckWorkloads(ctx, ws)
}

// Metrics snapshots the Checker's observability counters: parse-cache
// hit/miss/eviction/bytes, worker-pool saturation, and per-phase
// latency histograms. Safe to call concurrently with checks; the
// daemon's /metrics endpoint is a rendering of this snapshot.
func (c *Checker) Metrics() Metrics { return c.engine().Metrics() }

// Metrics aliases the engine snapshot: caches, pool, and phase
// histograms.
type Metrics = core.EngineMetrics

// PoolStats describes the worker pool's bound, instantaneous
// occupancy, and cumulative task count (Metrics().Pool).
type PoolStats = core.PoolStats

// PhaseStats is one pipeline phase's latency histogram.
type PhaseStats = core.PhaseStats

// CoalesceStats counts pipeline runs avoided by coalescing
// (Metrics().Coalesce): InBatch for workloads served by an analysis
// their own batch led, Singleflight for workloads served by one
// another batch led — even when they had twins in their own batch.
// Both stay zero under Options.NoCoalesce; OpenFlights is zero
// whenever no check is running.
type CoalesceStats = core.CoalesceStats

// DurabilityStats snapshots the durable registry's WAL and checkpoint
// counters (Metrics().Durability; nil for in-memory Checkers).
type DurabilityStats = core.DurabilityStats

// RecoverySummary reports what Open reconstructed from a data
// directory: recovered tenant counts, WAL records replayed, and a
// warning when replay stopped at a corrupt record.
type RecoverySummary = core.RecoverySummary

// engine lazily builds the Checker's shared analysis engine.
func (c *Checker) engine() *core.Engine {
	c.engineOnce.Do(func() {
		c.eng = core.NewEngine(c.coreOptions(), c.opts.Concurrency)
	})
	return c.eng
}

// coreOptions translates the public Options into the detection
// engine's configuration.
func (c *Checker) coreOptions() core.Options {
	opts := core.DefaultOptions()
	if c.opts.Mode == IntraQuery {
		opts.Config.Mode = appctx.ModeIntra
	}
	if c.opts.MinConfidence > 0 {
		opts.MinConfidence = c.opts.MinConfidence
	}
	if c.opts.GodTableColumns > 0 {
		opts.Config.GodTableColumns = c.opts.GodTableColumns
	}
	if c.opts.TooManyJoins > 0 {
		opts.Config.TooManyJoins = c.opts.TooManyJoins
	}
	if c.opts.SampleSize > 0 {
		opts.Config.Profile.SampleSize = c.opts.SampleSize
	}
	opts.Rules = c.opts.Rules
	opts.CacheBytes = c.opts.CacheBytes
	opts.NoCoalesce = c.opts.NoCoalesce
	opts.Reporter = newReporter(c.opts)
	if c.opts.PageCacheBytes > 0 {
		opts.PageCacheBytes = c.opts.PageCacheBytes
		if c.opts.DataDir != "" {
			opts.SpillDir = filepath.Join(c.opts.DataDir, "spill")
		}
	}
	return opts
}

// reporter is the Checker's core.Reporter: ap-rank and ap-fix over a
// detection result, run by the engine on the pool slot that detected
// it.
type reporter struct {
	model *rank.Model // read-only once built
}

func newReporter(o Options) *reporter {
	weights := rank.C1
	if o.Weights == Hybrid {
		weights = rank.C2
	}
	model := rank.NewModel(weights)
	if o.RankQueriesByCount {
		model.Mode = rank.ByCount
	}
	return &reporter{model: model}
}

// Report ranks a detection result and attaches fixes. The report is
// span-free and may be memoized, so its slices are sized up front, and
// left nil when empty.
func (r *reporter) Report(res *core.Result) (any, int64) {
	engine := fix.New(res.Context)

	report := &Report{Statements: len(res.Context.Facts)}
	findings := r.model.Rank(res.Findings)
	if len(findings) > 0 {
		report.Findings = make([]Finding, 0, len(findings))
	}
	for _, ranked := range findings {
		fx := engine.Repair(ranked.Finding)
		pf := Finding{
			Rule:       ranked.RuleID,
			Name:       ranked.RuleName,
			Category:   string(ranked.Category),
			Query:      ranked.QueryIndex,
			Table:      ranked.Table,
			Column:     ranked.Column,
			Message:    ranked.Message,
			Confidence: ranked.Confidence,
			Score:      ranked.Score,
			Fix: Fix{
				NewStatements:   fx.NewStatements,
				Guidance:        fx.Textual,
				ImpactedQueries: fx.Impacted,
			},
		}
		if len(fx.Rewrites) > 0 {
			pf.Fix.Rewrites = make([]Rewrite, 0, len(fx.Rewrites))
		}
		for _, rw := range fx.Rewrites {
			pf.Fix.Rewrites = append(pf.Fix.Rewrites, Rewrite{
				Query: rw.QueryIndex, Original: rw.Original, Fixed: rw.Fixed,
			})
		}
		report.Findings = append(report.Findings, pf)
	}
	queries := r.model.RankQueries(res.Findings)
	if len(queries) > 0 {
		report.Queries = make([]QueryReport, 0, len(queries))
	}
	for _, qr := range queries {
		q := QueryReport{Query: qr.QueryIndex, Count: qr.Count, TotalScore: qr.TotalScore}
		if qr.QueryIndex >= 0 && qr.QueryIndex < len(res.Context.Facts) {
			q.SQL = res.Context.Facts[qr.QueryIndex].Raw
		}
		report.Queries = append(report.Queries, q)
	}
	return report, reportMemCost(report)
}

// Rules describes the anti-pattern catalog: rule IDs, names,
// categories, descriptions, and the declarative metadata each rule
// carries — detection scopes, admitted statement kinds, resource
// needs, and Table 1 impact flags — grouped and sorted by category.
// The metadata is the same information the engine derives dispatch
// gates and phase plans from, so a caller can predict which phases a
// rule subset will run before submitting it.
func Rules() []RuleInfo {
	var out []RuleInfo
	for _, r := range rules.All() {
		info := RuleInfo{
			ID:          r.ID,
			Name:        r.Name,
			Category:    string(r.Category),
			Description: r.Description,
			Scopes:      r.Scopes(),
			Needs:       r.Needs().Strings(),
			Impact: RuleImpact{
				Performance:       r.Flags.Performance,
				Maintainability:   r.Flags.Maintainability,
				DataAmplification: r.Flags.DataAmp,
				DataIntegrity:     r.Flags.DataIntegrity,
				Accuracy:          r.Flags.Accuracy,
			},
		}
		for _, k := range r.Meta.Kinds {
			info.Kinds = append(info.Kinds, k.String())
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Category != out[j].Category {
			return out[i].Category < out[j].Category
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// RuleInfo describes one catalog entry with its full metadata.
type RuleInfo struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	Category    string `json:"category"`
	Description string `json:"description"`
	// Scopes lists the detection scopes the rule participates in, in
	// pipeline order: "query", "schema", "data".
	Scopes []string `json:"scopes"`
	// Kinds lists the statement kinds the rule's dispatch gate
	// admits; empty means any statement kind.
	Kinds []string `json:"kinds,omitempty"`
	// Needs lists analysis resources the rule consumes beyond
	// per-statement facts: "schema" and/or "profile". Selecting only
	// rules with no needs analyzes database-attached workloads
	// without profiling or snapshotting.
	Needs []string `json:"needs,omitempty"`
	// Impact mirrors the paper's Table 1 checkmarks.
	Impact RuleImpact `json:"impact"`
}

// RuleImpact mirrors Table 1's quality-dimension checkmarks.
// DataAmplification is +1 when fixing the anti-pattern increases data
// amplification, -1 when it decreases it, 0 when unaffected.
type RuleImpact struct {
	Performance       bool `json:"performance"`
	Maintainability   bool `json:"maintainability"`
	DataAmplification int  `json:"data_amplification"`
	DataIntegrity     bool `json:"data_integrity"`
	Accuracy          bool `json:"accuracy"`
}
