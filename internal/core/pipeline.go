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
	// the admission probe is skipped and the result carries no Store
	// hook, so the workload neither serves from nor populates the
	// cache.
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
	// — see ReportCache. The engine probes and invalidates; the owning
	// layer supplies the payloads through Result.Store.
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
	// flights tracks in-flight cold analyses by report identity for
	// the cross-batch singleflight: a stampede of concurrent identical
	// cold misses analyzes once and fans the result out. Guarded by
	// flightMu; entries live only while their leader runs.
	flightMu sync.Mutex
	flights  map[reportVariantKey]*flight
	// coalesce counts the workloads served without running the
	// pipeline because an identical workload was already running or
	// ran in the same batch.
	coalesce coalesceCounters
	// rulePanics counts rule-detector panics recovered into
	// per-workload errors (ErrRulePanic). A nonzero count means a
	// registered rule is buggy; the workloads it failed got errors,
	// everything else kept serving.
	rulePanics atomic.Int64
}

// flight is one in-flight cold analysis. done closes when the leader
// finishes; res is the leader's result, nil when the leader failed
// (context canceled) — waiters then retry for leadership.
type flight struct {
	done chan struct{}
	res  *Result
}

// coalesceCounters tallies pipeline runs avoided by coalescing.
type coalesceCounters struct {
	// inBatch counts batch workloads served by a same-batch leader's
	// result (the duplicate-heavy batch case).
	inBatch atomic.Int64
	// singleflight counts workloads that waited on — and were served
	// by — a concurrent identical analysis from another batch.
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
// pipeline on that goroutine; a report-cache hit holds none. Workload
// databases — named or inline — are snapshotted up front, so the
// whole batch analyzes a consistent view taken at admission. The
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
	// no phase runs and no slot is taken; the caller rebinds spans
	// through Script. In-batch coalescing groups the rest: workloads
	// sharing a report identity (same fingerprint, byte-identical
	// statement texts, same database state and configuration — exactly
	// the report cache's hit condition) run the pipeline once. The
	// first of each group leads; the rest share the leader's context
	// and findings after the batch, each under its own script so
	// finding spans rebind to its exact submitted text. Only
	// memo-eligible cold misses group: a NoMemo workload's contract is
	// a from-scratch analysis.
	run := make([]int, 0, len(planned))
	var followers map[int]int // follower index -> leader index
	leaders := make(map[reportVariantKey]int)
	for i := range planned {
		pw := &planned[i]
		if pw.memo != nil {
			out[i] = &Result{Memo: pw.memo, Script: pw.script}
			continue
		}
		if e.opts.NoCoalesce || !pw.canStore {
			run = append(run, i)
			continue
		}
		vk := reportVariantKey{key: pw.key, texts: pw.texts}
		if li, ok := leaders[vk]; ok {
			if followers == nil {
				followers = make(map[int]int)
			}
			followers[i] = li
			continue
		}
		leaders[vk] = i
		run = append(run, i)
	}

	err = e.pool.each(ctx, len(run), func(ri int) {
		i := run[ri]
		r, err := e.detectWorkload(ctx, planned[i])
		if err != nil {
			if isContextErr(err) {
				return // batch-level cancellation; surfaced below
			}
			// Per-workload failure (a panicking rule): this workload
			// reports the error, the rest of the batch is unaffected.
			if errors.Is(err, ErrRulePanic) {
				e.rulePanics.Add(1)
			}
			out[i] = &Result{Err: err, Script: planned[i].script}
			return
		}
		out[i] = r
	})
	if err != nil {
		// The batch failed before the owner could collect results: no
		// Store call will ever land, so release any singleflight
		// flights completed results still hold — a flight must never
		// outlive its store attempt.
		for _, r := range out {
			if r != nil && r.abandon != nil {
				r.abandon()
			}
		}
		return nil, err
	}
	for fi, li := range followers {
		lead := out[li]
		if lead == nil {
			continue // leader failed; only possible when ctx canceled
		}
		if lead.Err != nil {
			// The leader's rule panic is the follower's too: identical
			// input, identical deterministic failure.
			out[fi] = &Result{Err: lead.Err, Script: planned[fi].script}
			continue
		}
		out[fi] = &Result{Context: lead.Context, Findings: lead.Findings, Script: planned[fi].script}
		e.coalesce.inBatch.Add(1)
	}
	return out, nil
}

// isContextErr reports whether err is a cancellation or deadline
// error — the batch-level failures, as opposed to per-workload ones.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// openFlights returns how many cold analyses are registered in the
// cross-batch singleflight right now. A steady-state nonzero value
// after traffic drains would mean a leaked flight — the cancellation
// suite asserts it returns to zero.
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
				scope:     e.opts.ReportScope,
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

// detectWorkload runs one admitted cold workload, merging concurrent
// identical cold misses onto a single pipeline run (the cross-batch
// singleflight): when another goroutine is already analyzing the same
// report identity, this workload waits and shares that result instead
// of parsing and evaluating the same statements again. A waiter holds
// its pool slot while it waits, which cannot deadlock: the leader
// already holds its own slot and never waits for another (see Pool).
// A waiter whose leader fails (context canceled) retries for
// leadership rather than inheriting the failure.
func (e *Engine) detectWorkload(ctx context.Context, pw plannedWorkload) (*Result, error) {
	if e.opts.NoCoalesce || !pw.canStore {
		return e.runWorkload(ctx, pw)
	}
	vk := reportVariantKey{key: pw.key, texts: pw.texts}
	for {
		e.flightMu.Lock()
		if other, ok := e.flights[vk]; ok {
			e.flightMu.Unlock()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-other.done:
			}
			if other.res != nil {
				e.coalesce.singleflight.Add(1)
				return &Result{Context: other.res.Context, Findings: other.res.Findings, Script: pw.script}, nil
			}
			continue // leader failed; retry for leadership
		}
		// No flight. The admission probe ran before this goroutine was
		// scheduled, so a leader may have finished and stored in the
		// gap — re-probe under the flight lock before re-running the
		// whole pipeline. Flights are deregistered only after their
		// report lands in the cache, so flight-then-cache misses both
		// only when no identical analysis happened.
		if payload, ok := e.reports.recheck(pw.key, pw.texts); ok {
			e.flightMu.Unlock()
			return &Result{Memo: payload, Script: pw.script}, nil
		}
		fl := &flight{done: make(chan struct{})}
		e.flights[vk] = fl
		e.flightMu.Unlock()

		res, err := e.runWorkload(ctx, pw)
		fl.res = res // written before done closes; nil on error
		if res != nil && res.Store != nil {
			// Keep the flight registered until the owner's Store call
			// actually lands the report in the cache: between done
			// closing and that store, new arrivals merge on the
			// flight's result instead of finding neither a cache entry
			// nor a flight and re-running the analysis. The flight
			// never outlives the store attempt: if the cache declines
			// admission (variant bound, doorkeeper under memory
			// pressure), later arrivals re-run rather than pinning an
			// unbounded flight per declined literal variant. And when
			// the owner will never store — the batch was canceled
			// mid-collection — it calls abandon instead, so a shed
			// request cannot leak its flight.
			release := func() {
				e.flightMu.Lock()
				delete(e.flights, vk)
				e.flightMu.Unlock()
			}
			store := res.Store
			res.Store = func(payload any, cost int64) {
				store(payload, cost)
				release()
			}
			res.abandon = release
		} else {
			e.flightMu.Lock()
			delete(e.flights, vk)
			e.flightMu.Unlock()
		}
		close(fl.done)
		return res, err
	}
}

// runWorkload runs the staged pipeline over one admitted workload, on
// the goroutine holding the workload's pool slot. Stages observe their
// wall time into the engine's phase histograms; stages the workload's
// rule set does not demand are skipped (zero observations) rather
// than run empty. Between stages the context is checked, so a shed or
// timed-out request stops before starting the next stage's work.
func (e *Engine) runWorkload(ctx context.Context, pw plannedWorkload) (*Result, error) {
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
	if pw.canStore {
		key, texts := pw.key, pw.texts
		res.Store = func(payload any, cost int64) {
			e.reports.add(key, texts, payload, cost)
		}
	}
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
