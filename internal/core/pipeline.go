package core

// Concurrent batched analysis pipeline. The unit of work is a
// Workload: one SQL script plus an optional attached database and
// per-workload profile options. Everything else (single checks,
// string batches) is a special case of DetectWorkloads.
//
// There is one level of parallelism: across workloads. Each workload
// holds one slot of the engine's bounded pool and runs the detection
// algorithm's stages in order on that goroutine — per-statement work
// (tokenize, parse, fact extraction), the application-context build,
// query rules, then inter-query and data rules — in the sequential
// path's exact order, so an Engine run returns exactly what Detect
// returns. The one fan-out inside a workload is per-table data
// profiling, which shares slots that are free at that moment
// (Pool.share) and never waits for one.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlcheck/internal/appctx"
	"sqlcheck/internal/profile"
	"sqlcheck/internal/qanalyze"
	"sqlcheck/internal/rules"
	"sqlcheck/internal/sqlast"
	"sqlcheck/internal/sqltoken"
	"sqlcheck/internal/storage"
)

// Pool is a bounded worker pool. The zero size (via NewPool(0)) means
// GOMAXPROCS workers. Its one invariant: no goroutine ever waits for
// a slot while holding one. each acquires blocking and is called only
// by goroutines that hold no slot; share runs on a slot holder and
// only takes slots that are free, so the pool cannot deadlock however
// calls nest.
type Pool struct {
	sem   chan struct{}
	tasks atomic.Int64
}

// NewPool builds a pool with n workers (n <= 0 means GOMAXPROCS).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, n)}
}

// Size returns the worker bound.
func (p *Pool) Size() int { return cap(p.sem) }

// InUse returns how many slots are held right now; InUse/Size is the
// pool's saturation gauge.
func (p *Pool) InUse() int { return len(p.sem) }

// Stats snapshots the pool's bound, current occupancy, and cumulative
// slot acquisitions.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Size: p.Size(), InUse: p.InUse(), Tasks: p.tasks.Load()}
}

// each runs fn(i) for every i in [0, n) on its own goroutine, each
// holding one pool slot, and waits for all scheduled calls. When ctx
// is canceled it stops scheduling new work, waits for in-flight calls,
// and returns the context error. The caller must not hold a slot of
// p: acquisition blocks.
func (p *Pool) each(ctx context.Context, n int, fn func(i int)) error {
	var wg sync.WaitGroup
	for i := 0; i < n && ctx.Err() == nil; i++ {
		select {
		case <-ctx.Done():
		case p.sem <- struct{}{}:
			p.tasks.Add(1)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-p.sem }()
				fn(i)
			}(i)
		}
	}
	wg.Wait()
	return ctx.Err()
}

// share runs fn(i) for every i in [0, n) on the calling goroutine,
// which holds a slot of p already, helped by one goroutine for each
// slot free at the moment of the call (at most n-1). It never waits
// for a slot: on a full pool the caller works through every item
// itself. The caller and the helpers claim items from one counter.
// When ctx is canceled the remaining items are skipped and the context
// error is returned once every claimed call has finished.
func (p *Pool) share(ctx context.Context, n int, fn func(i int)) error {
	var next atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
helpers:
	for h := 1; h < n; h++ {
		select {
		case p.sem <- struct{}{}:
			p.tasks.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.sem }()
				work()
			}()
		default:
			break helpers // pool full: the caller does the rest
		}
	}
	work()
	wg.Wait()
	return ctx.Err()
}

// Workload is one unit of batched analysis: a SQL script with an
// optional attached database (data rules run when present) and
// optional per-workload profile options overriding the engine's
// defaults.
type Workload struct {
	SQL string
	DB  *storage.Database
	// DBName resolves the analysis database through the engine's
	// registry instead of attaching a handle; mutually exclusive with
	// DB. Profiling runs over a snapshot of the registered database,
	// never the live handle.
	DBName string
	// Profile, when non-nil, replaces the engine's sampling options
	// for this workload only.
	Profile *profile.Options
	// Rules, when non-empty, replaces the engine's rule filter for
	// this workload. The IDs compile into a rules.RuleSet at batch
	// admission; unknown IDs fail the batch with rules.ErrUnknownRule.
	// The engine plans this workload's phases from the compiled set:
	// no profile-needing rules means no table profiling, no
	// database-needing rules means no admission snapshot, and no
	// schema-scoped rules skips the inter-query phase.
	Rules []string
	// NoMemo opts this workload out of the report memoization cache:
	// the admission probe is skipped and its report, built for it
	// alone, is not stored, so the workload neither serves from nor
	// populates the cache.
	NoMemo bool
}

// Engine is a reusable concurrent detection pipeline: a bounded
// worker pool plus a parsed-AST cache shared across runs. One Engine
// safely serves any number of concurrent DetectWorkloads calls, which
// is what lets a long-running daemon share one pool across requests
// instead of spawning per-request workers.
type Engine struct {
	opts Options
	// pool bounds concurrently analyzing workloads: each holds one
	// slot for its whole pipeline run, and per-table profiling shares
	// the slots free at the time.
	pool  *Pool
	cache *ParseCache
	// profiles memoizes table profiles across batches, keyed by
	// (table identity, version, options) — see ProfileCache.
	profiles *ProfileCache
	// reports memoizes finished workload reports across batches, keyed
	// by (script fingerprint, database state, ruleset, configuration)
	// — see ReportCache. The engine probes it at admission and stores
	// the reports Options.Reporter builds.
	reports  *ReportCache
	phases   *phaseSet
	registry *Registry
	// pageCache, when non-nil, bounds resident row-page bytes across
	// every database the registry holds; see Options.PageCacheBytes.
	// Registered and recovered tenants are adopted into it by the
	// registry; inline workload databases never are.
	pageCache *storage.PageCache
	// ruleSet is Options.Rules compiled once at construction — the
	// admission-time form of the rule filter. rulesErr records unknown
	// IDs and fails every batch until the options are fixed.
	ruleSet  *rules.RuleSet
	rulesErr error
	// snapshots counts copy-on-write database snapshots taken for
	// profiling isolation — one per database-attached workload,
	// whether registry-resolved or inline.
	snapshots atomic.Int64
	// skips counts demand-planning decisions: pipeline work not done
	// because no enabled rule needed it.
	skips phaseSkipCounters
	// flights tracks cold analyses by report identity, from admission
	// until the leader's report is stored: every cold duplicate, from
	// the leader's batch or any other, joins the flight instead of
	// running the pipeline again. Guarded by flightMu.
	flightMu sync.Mutex
	flights  map[reportVariantKey]*flight
	// coalesce counts the workloads served from a flight they joined
	// instead of running the pipeline.
	coalesce coalesceCounters
	// rulePanics counts rule-detector panics recovered into
	// per-workload errors (ErrRulePanic). A nonzero count means a
	// registered rule is buggy; the workloads it failed got errors,
	// everything else kept serving.
	rulePanics atomic.Int64
}

// flight is one cold report identity's analysis, open from its
// leader's admission until the leader has built and stored the report.
// res is the leader's result, written before done closes: its report,
// or Err when a rule or the Reporter panicked, and nil when the leader
// was canceled — its joiners then retry for leadership.
type flight struct {
	done chan struct{}
	// batch is the first workload of the leader's batch, which
	// identifies the DetectWorkloads call that opened the flight.
	batch *plannedWorkload
	res   *Result
}

// coalesceCounters tallies pipeline runs avoided by coalescing.
type coalesceCounters struct {
	// inBatch counts workloads served by a flight their own batch
	// leads (the duplicate-heavy batch case).
	inBatch atomic.Int64
	// singleflight counts workloads served by a flight another batch
	// leads (the concurrent identical cold miss case).
	singleflight atomic.Int64
}

// phaseSkipCounters tallies skipped work per planning decision.
type phaseSkipCounters struct {
	// profile counts workloads with an attached database whose rule
	// set needed no data profiles, so table profiling did not run.
	profile atomic.Int64
	// snapshot counts database-attached workloads whose rule set
	// needed nothing from the database, so no copy-on-write snapshot
	// was taken and analysis proceeded database-free.
	snapshot atomic.Int64
	// interQuery counts inter-mode workloads whose rule set had no
	// schema-scoped rules, so the inter-query phase did not run.
	interQuery atomic.Int64
}

// NewEngine builds an Engine. concurrency bounds the worker pool
// (<= 0 means GOMAXPROCS, 1 means one workload at a time). When
// opts.SharedCache is non-nil the engine parses through it — the
// process-wide cache — instead of building a private one.
func NewEngine(opts Options, concurrency int) *Engine {
	if opts.MinConfidence == 0 {
		opts.MinConfidence = 0.5
	}
	cache := opts.SharedCache
	if cache == nil {
		cache = NewParseCache(DefaultParseCacheBytes)
	}
	pcache := opts.SharedProfileCache
	if pcache == nil {
		pcache = NewProfileCache(DefaultProfileCacheBytes)
	}
	rcache := opts.SharedReportCache
	if rcache == nil {
		rcache = NewReportCache(DefaultReportCacheBytes)
	}
	rs, rsErr := rules.NewRuleSet(opts.Rules)
	e := &Engine{
		opts:     opts,
		pool:     NewPool(concurrency),
		cache:    cache,
		profiles: pcache,
		reports:  rcache,
		phases:   newPhaseSet(),
		registry: NewRegistry(),
		ruleSet:  rs,
		rulesErr: rsErr,
		flights:  make(map[reportVariantKey]*flight),
	}
	if opts.PageCacheBytes > 0 {
		e.pageCache = storage.NewPageCache(opts.PageCacheBytes, opts.SpillDir)
		e.registry.SetPageCache(e.pageCache)
	}
	return e
}

// PageCache returns the engine's spill-capable page cache, or nil
// when Options.PageCacheBytes was zero.
func (e *Engine) PageCache() *storage.PageCache { return e.pageCache }

// Registry returns the engine's named-database registry.
func (e *Engine) Registry() *Registry { return e.registry }

// ProfileOptions returns the engine's default data-profiling options
// — the base that per-workload overrides start from.
func (e *Engine) ProfileOptions() profile.Options { return e.opts.Config.Profile }

// CacheStats returns the parse cache's hit and miss counts. With a
// shared cache the counts span every engine attached to it.
func (e *Engine) CacheStats() (hits, misses int64) {
	st := e.cache.Stats()
	return st.Hits, st.Misses
}

// DetectWorkloads analyzes independent workloads concurrently on the
// shared pool and returns one Result per workload, in input order.
// Each analyzed workload holds one pool slot and runs its whole
// pipeline — and, with a Reporter, its report build — on that
// goroutine; a report-cache hit or a coalesced duplicate holds none.
// Workload databases — named or inline — are snapshotted up front, so
// the whole batch analyzes a consistent view taken at admission. The
// error is non-nil when ctx is canceled or when a workload is
// malformed (unknown DBName, or both DB and DBName set); no results
// are returned on error.
func (e *Engine) DetectWorkloads(ctx context.Context, ws []Workload) ([]*Result, error) {
	planned, err := e.resolveWorkloads(ws)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(planned))

	// Admission hits are served here: the finished report was memoized
	// under this exact (fingerprint, db state, ruleset, texts) key, so
	// no phase runs and no slot is taken; the caller binds spans
	// through Script.
	cold := make([]int, 0, len(planned))
	for i := range planned {
		if pw := &planned[i]; pw.memo != nil {
			out[i] = &Result{Report: pw.memo, Script: pw.script}
		} else {
			cold = append(cold, i)
		}
	}
	// Each round runs its leaders on the pool, then collects its
	// joiners, holding no slot while it waits. A joiner whose leader
	// was canceled goes round again to lead or join anew.
	for len(cold) > 0 {
		run, joined := e.admit(planned, out, cold)
		if err := e.pool.each(ctx, len(run), func(ri int) { e.lead(ctx, planned, out, run[ri]) }); err != nil {
			// Land the flights of leaders canceled or never started, so
			// their joiners in other batches retry.
			for _, i := range run {
				if planned[i].flight != nil && out[i] == nil {
					e.land(&planned[i], nil)
				}
			}
			return nil, err
		}
		cold = cold[:0]
		for _, i := range joined {
			pw := &planned[i]
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-pw.flight.done:
			}
			lead := pw.flight.res
			switch {
			case lead == nil:
				cold = append(cold, i)
			case lead.Err != nil:
				// The leader's panic is the joiner's too: identical
				// input, identical deterministic failure.
				out[i] = &Result{Err: lead.Err, Script: pw.script}
			default:
				out[i] = &Result{Context: lead.Context, Findings: lead.Findings, Report: lead.Report, Script: pw.script}
				if pw.flight.batch == &planned[0] {
					e.coalesce.inBatch.Add(1)
				} else {
					e.coalesce.singleflight.Add(1)
				}
			}
		}
	}
	return out, nil
}

// admit places a batch's cold workloads under the flight lock. It
// returns those to run — NoMemo and NoCoalesce workloads, and one
// leader per report identity, opening its flight — and those that
// joined a flight already open, whichever batch opened it. A would-be
// leader first re-probes the cache: leaders store before their flights
// close, so a workload that finds neither has no identical analysis to
// reuse. run reuses cold's array, which it never outgrows.
func (e *Engine) admit(planned []plannedWorkload, out []*Result, cold []int) (run, joined []int) {
	e.flightMu.Lock()
	defer e.flightMu.Unlock()
	run = cold[:0]
	for _, i := range cold {
		pw := &planned[i]
		if e.opts.NoCoalesce || !pw.canStore {
			run = append(run, i)
			continue
		}
		vk := reportVariantKey{key: pw.key, texts: pw.texts}
		if fl, ok := e.flights[vk]; ok {
			pw.flight = fl
			joined = append(joined, i)
			continue
		}
		if report, ok := e.reports.recheck(pw.key, pw.texts); ok {
			out[i] = &Result{Report: report, Script: pw.script}
			continue
		}
		pw.flight = &flight{done: make(chan struct{}), batch: &planned[0]}
		e.flights[vk] = pw.flight
		run = append(run, i)
	}
	return run, joined
}

// lead runs one cold workload on the pool slot its goroutine holds:
// the pipeline, then the Reporter's report, stored before the flight
// the workload leads, if any, lands.
func (e *Engine) lead(ctx context.Context, planned []plannedWorkload, out []*Result, i int) {
	pw := &planned[i]
	res, err := e.runWorkload(ctx, pw)
	if err == nil && e.opts.Reporter != nil {
		err = e.report(pw, res)
	}
	if isContextErr(err) {
		return // batch-level cancellation, surfaced by the pool
	}
	if err != nil {
		// Per-workload failure (a panicking rule or Reporter): this
		// workload and its joiners report the error, the rest of the
		// batch is unaffected.
		if errors.Is(err, ErrRulePanic) {
			e.rulePanics.Add(1)
		}
		res = &Result{Err: err, Script: pw.script}
	}
	out[i] = res
	if pw.flight != nil {
		e.land(pw, res)
	}
}

// report builds res's report and stores it when the workload is
// memo-eligible. It runs on a pool goroutine, beyond any caller's
// recover, so a Reporter panic is recovered here into ErrRulePanic.
func (e *Engine) report(pw *plannedWorkload, res *Result) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: building the report: %v", ErrRulePanic, p)
		}
	}()
	report, cost := e.opts.Reporter.Report(res)
	if pw.canStore {
		e.reports.add(pw.key, pw.texts, report, cost)
	}
	res.Report = report
	return nil
}

// land closes the flight pw leads with its result (nil when canceled):
// deregister it, then wake its joiners. Any report is stored already;
// if the cache declined it, later arrivals run afresh rather than
// pinning a flight per declined variant.
func (e *Engine) land(pw *plannedWorkload, res *Result) {
	fl := pw.flight
	fl.res = res
	e.flightMu.Lock()
	delete(e.flights, reportVariantKey{key: pw.key, texts: pw.texts})
	e.flightMu.Unlock()
	close(fl.done)
}

// isContextErr reports whether err is a cancellation or deadline
// error — the batch-level failures, as opposed to per-workload ones.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// openFlights returns how many cold analyses are registered in the
// flight registry right now. Every flight lands before the
// DetectWorkloads call that opened it returns, so the count is zero
// whenever no call is running — the cancellation suite asserts it.
func (e *Engine) openFlights() int {
	e.flightMu.Lock()
	defer e.flightMu.Unlock()
	return len(e.flights)
}

// plannedWorkload is a workload after admission: database resolved
// and snapshotted (or dropped), rule filter compiled into the set the
// detection stages dispatch from, script fingerprinted and the report
// cache probed.
type plannedWorkload struct {
	Workload
	rs *rules.RuleSet
	// script is the workload SQL's fingerprint plus statement texts
	// and literal/offset metadata — computed once at admission and
	// reused by the parse stage in place of a second split.
	script *sqltoken.ScriptPrint
	// memo, when non-nil, is the cache hit: the memoized payload to
	// return without running any pipeline phase.
	memo any
	// key and texts identify where a freshly computed report should be
	// stored; valid only when canStore is set (a probed miss).
	key      reportKey
	texts    string
	canStore bool
	// flight is the flight the workload leads or joined; nil when it
	// runs alone.
	flight *flight
}

// resolveWorkloads admits a batch: it compiles each workload's
// effective rule set and materializes each workload's analysis
// database. Named workloads resolve through the registry, and any
// attached database — registered or inline — is replaced by a
// copy-on-write snapshot, so profiling always reads a frozen,
// consistent view while DML may continue on the live handle.
// Workloads sharing one database (by name or by handle) share one
// snapshot, so the whole batch analyzes the same state and pays the
// page-capture cost once.
//
// Admission is also where demand planning happens: a workload whose
// rule set needs nothing from the database analyzes database-free (no
// snapshot is taken), and one whose set needs schema reflection but
// no profiles is marked to skip the profiling phase. Unknown rule
// IDs — in Options.Rules or a workload's Rules — fail the whole
// batch here, before any analysis work starts.
func (e *Engine) resolveWorkloads(ws []Workload) ([]plannedWorkload, error) {
	if e.rulesErr != nil {
		return nil, e.rulesErr
	}
	out := make([]plannedWorkload, len(ws))
	engineSet := e.ruleSet
	if engineSet.All() {
		// An unfiltered engine tracks the live catalog, not the set
		// compiled at construction: rules registered after NewEngine
		// (the public RegisterRule extension path) must run here just
		// as they do on the sequential Detect path. The all-set is
		// cached and invalidated by Register, so this costs one lock
		// per batch.
		engineSet = rules.AllRuleSet()
	}
	// Pass 1 — validate the whole batch: compile every workload's rule
	// set and resolve every database reference before any snapshot is
	// taken or metric bumped, so a malformed workload anywhere in the
	// batch costs nothing and skews no counters.
	for i, w := range ws {
		rs := engineSet
		if len(w.Rules) > 0 {
			var err error
			rs, err = rules.NewRuleSet(w.Rules)
			if err != nil {
				return nil, fmt.Errorf("workload %d: %w", i, err)
			}
		}
		if w.DBName != "" {
			if w.DB != nil {
				return nil, fmt.Errorf("sqlcheck: workload %d: DB and DBName are mutually exclusive", i)
			}
			db, err := e.registry.Resolve(w.DBName)
			if err != nil {
				return nil, fmt.Errorf("workload %d: %w", i, err)
			}
			w.DB = db
		}
		out[i] = plannedWorkload{Workload: w, rs: rs}
	}
	// Pass 2 — the batch is admitted: fingerprint each script, apply
	// the phase plan, probe the report cache (a hit returns the
	// memoized report before any snapshot is taken or phase runs),
	// snapshot the databases still needed, and count the planning
	// decisions.
	snaps := make(map[*storage.Database]*storage.Database)
	inter := e.opts.Config.Mode != appctx.ModeIntra
	var scope string
	if e.opts.Reporter != nil {
		scope = e.opts.Reporter.Scope()
	}
	for i := range out {
		pw := &out[i]
		w, rs := &pw.Workload, pw.rs
		// The fingerprint is memoized by exact script text inside the
		// report cache, so a repeated workload's probe skips the lex.
		var texts string
		pw.script, texts = e.reports.script(w.SQL)
		useDB := w.DB != nil
		if useDB && (!inter || !rs.NeedsDatabase()) {
			// Nothing will read schema or data — either the rule set
			// needs neither, or intra mode never builds them: analyze
			// database-free. No snapshot, no reflection, no profiling.
			w.DB = nil
			useDB = false
			e.skips.snapshot.Add(1)
			if inter {
				e.skips.profile.Add(1)
			}
		}
		if !w.NoMemo {
			key := reportKey{
				fp:        pw.script.Fingerprint,
				rules:     rs.Key(),
				cfg:       e.memoConfig(w.Profile),
				minConf:   e.opts.MinConfidence,
				noPrefilt: e.opts.NoPrefilter,
				scope:     scope,
			}
			if useDB {
				// The live database's state version, read under the
				// single-writer lock so the probe does not race DML.
				w.DB.Lock()
				key.dbID, key.dbVersion = w.DB.ID(), w.DB.Version()
				w.DB.Unlock()
			}
			if payload, ok := e.reports.lookup(key, texts); ok {
				pw.memo = payload
				continue
			}
			pw.key, pw.texts, pw.canStore = key, texts, true
		}
		if !useDB {
			continue
		}
		snap, ok := snaps[w.DB]
		if !ok {
			snap = w.DB.Snapshot()
			snaps[w.DB] = snap
			e.snapshots.Add(1)
		}
		w.DB = snap
		if pw.canStore {
			// Store under the state the analysis actually reads: the
			// snapshot's frozen version (ahead of the probed one when
			// a writer slipped in between).
			pw.key.dbVersion = snap.Version()
		}
		if inter && !rs.NeedsProfile() {
			e.skips.profile.Add(1)
		}
	}
	return out, nil
}

// memoConfig returns the effective analysis configuration for a
// workload as it enters the report-cache key: the engine config with
// any per-workload profile override applied and the profile options
// normalized (so zero-valued and explicitly-default options share
// entries).
func (e *Engine) memoConfig(override *profile.Options) appctx.Config {
	cfg := e.opts.Config
	if override != nil {
		cfg.Profile = *override
	}
	cfg.Profile = cfg.Profile.Normalized()
	return cfg
}

// runWorkload runs the staged pipeline over one admitted workload, on
// the goroutine holding the workload's pool slot. Stages observe their
// wall time into the engine's phase histograms; stages the workload's
// rule set does not demand are skipped (zero observations) rather
// than run empty. Between stages the context is checked, so a shed or
// timed-out request stops before starting the next stage's work.
func (e *Engine) runWorkload(ctx context.Context, pw *plannedWorkload) (*Result, error) {
	w := pw.Workload
	cfg := e.opts.Config
	if w.Profile != nil {
		cfg.Profile = *w.Profile
	}

	texts := pw.script.Texts()
	stmts := make([]sqlast.Statement, len(texts))
	facts := make([]*qanalyze.Facts, len(texts))

	// Stage 1, per statement: tokenize + parse (through the AST
	// cache) + fact extraction.
	start := time.Now()
	for i, text := range texts {
		stmts[i] = e.cache.Parse(text)
		facts[i] = qanalyze.Analyze(stmts[i])
	}
	e.phases.observe(PhaseParse, time.Since(start))

	// Stage 2, per table: data profiling, shared with free pool slots
	// so a 50-table database profiles with up to N-way parallelism
	// instead of serially inside the context build. The phase runs
	// only on demand: when no rule in the workload's set consumes
	// profiles, the whole stage — snapshot scan, sampling,
	// histogramming — is elided (counted at admission in skips).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var profiles map[string]*profile.TableProfile
	if pw.rs.NeedsProfile() {
		start = time.Now()
		var err error
		profiles, err = e.profileTables(ctx, w.DB, cfg)
		if err != nil {
			return nil, err
		}
		if profiles != nil {
			e.phases.observe(PhaseProfile, time.Since(start))
		}
	}

	// Stage 3, global: application-context build (schema replay,
	// cross-statement aggregates) over the prebuilt profiles.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start = time.Now()
	actx := appctx.BuildWithProfiles(stmts, facts, w.DB, cfg, profiles)
	e.phases.observe(PhaseContext, time.Since(start))

	// Stage 4, per statement: query-rule evaluation behind the
	// dispatch prefilter, over the workload's compiled rule set —
	// the sequential path's own loop.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start = time.Now()
	findings, err := queryRuleFindings(actx, e.opts, pw.rs)
	if err != nil {
		return nil, err
	}
	e.phases.observe(PhaseQueryRules, time.Since(start))

	// Stage 5, global: inter-query and data rules, then dedupe — in
	// the sequential path's exact append order, so results match
	// Detect byte for byte. A set with no schema-scoped rules skips
	// the inter-query phase (counted in skips).
	if actx.Inter() && !pw.rs.HasGlobalRules() {
		e.skips.interQuery.Add(1)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start = time.Now()
	gf, err := globalFindings(actx, pw.rs)
	if err != nil {
		return nil, err
	}
	res := &Result{Context: actx, Script: pw.script,
		Findings: dedupe(append(findings, gf...), e.opts.MinConfidence)}
	e.phases.observe(PhaseGlobal, time.Since(start))
	return res, nil
}

// profileTables profiles every table of the workload's database,
// shared between the calling workload goroutine and helpers on free
// pool slots, and merges the results in the deterministic
// lower-cased-name keying the sequential ProfileDatabase uses. Each
// table consults the engine's profile cache first: db is always an
// admission snapshot, so its tables' (identity, version) pairs are
// frozen and a hit returns the profile an identical fresh pass would
// compute — the warm path for a registered database whose data has
// not changed does no sampling at all. A canceled ctx stops
// mid-profile and returns the context error. Without a database (or
// in intra mode, which skips data analysis) it returns nil.
func (e *Engine) profileTables(ctx context.Context, db *storage.Database, cfg appctx.Config) (map[string]*profile.TableProfile, error) {
	if db == nil || cfg.Mode == appctx.ModeIntra {
		return nil, nil
	}
	tables := db.Tables()
	tps := make([]*profile.TableProfile, len(tables))
	if err := e.pool.share(ctx, len(tables), func(i int) {
		if tp, ok := e.profiles.Lookup(tables[i], cfg.Profile); ok {
			tps[i] = tp
			return
		}
		tp, err := profile.ProfileTableContext(ctx, tables[i], cfg.Profile)
		if err != nil {
			return // ctx canceled; share surfaces it
		}
		e.profiles.Add(tables[i], cfg.Profile, tp)
		tps[i] = tp
	}); err != nil {
		return nil, err
	}
	out := make(map[string]*profile.TableProfile, len(tps))
	for _, tp := range tps {
		if tp != nil {
			out[strings.ToLower(tp.Table)] = tp
		}
	}
	return out, nil
}
