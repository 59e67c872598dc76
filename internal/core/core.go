// Package core orchestrates anti-pattern detection — the sqlcheck
// algorithm of the paper's Algorithm 1. It builds the application
// context from queries and (optionally) a live database, applies query
// rules per statement with contextual refinement (Algorithm 2), then
// applies data rules per table profile (Algorithm 3), and returns the
// deduplicated findings.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"sqlcheck/internal/appctx"
	"sqlcheck/internal/parser"
	"sqlcheck/internal/qanalyze"
	"sqlcheck/internal/rules"
	"sqlcheck/internal/sqlast"
	"sqlcheck/internal/sqltoken"
	"sqlcheck/internal/storage"
)

// ErrRulePanic marks a detection failure caused by a rule detector
// panicking. Every rule invocation — built-in or registered through
// the public CustomRule path — runs behind a recover, so a panicking
// detector fails the workload it was analyzing with a wrapped
// ErrRulePanic instead of tearing down the process (or, in a daemon,
// the whole serving goroutine). Matched with errors.Is.
var ErrRulePanic = errors.New("rule panicked")

// Options configures a detection run.
type Options struct {
	// Config carries context-builder settings (mode, thresholds).
	Config appctx.Config
	// MinConfidence drops findings below the threshold; the default
	// 0.5 keeps medium-confidence heuristics while suppressing the
	// weakest string matches.
	MinConfidence float64
	// Rules restricts detection to the given rule IDs (nil = all).
	// The filter compiles once into a rules.RuleSet — disabled rules
	// never reach gates or detectors, and the engine plans pipeline
	// phases from the compiled set's declared needs. Engine paths
	// reject unknown IDs at admission (rules.ErrUnknownRule); the
	// sequential Detect path drops them silently.
	Rules []string
	// NoPrefilter disables the rule-dispatch prefilter, running every
	// query-scoped rule on every statement. Kept as the benchmark
	// baseline and for verifying gate conservatism.
	NoPrefilter bool
	// SharedCache, when non-nil, is the parse cache the Engine uses
	// instead of building a private one — inject one cache into many
	// engines to share parsed ASTs process-wide. Ignored by the
	// sequential Detect path, which does not cache.
	SharedCache *ParseCache
	// SharedProfileCache, when non-nil, is the table-profile
	// memoization cache the Engine uses instead of building a private
	// one — the data-phase analogue of SharedCache. Profiles are keyed
	// by (table identity, options) at the table version, so registered
	// databases reuse them across batches until DML bumps the version,
	// and the re-profiled version then replaces the old one. Ignored
	// by the sequential Detect path.
	SharedProfileCache *ProfileCache
	// SharedReportCache, when non-nil, is the report memoization cache
	// the Engine uses instead of building a private one — the serving
	// fast path. Reports are keyed by (script fingerprint, database
	// origin ID + state version, normalized ruleset, configuration)
	// with byte-identical statement texts as the hit condition, so a
	// repeated workload against an unchanged database returns its
	// memoized report before any pipeline phase runs; any DML on the
	// database moves its version, and the re-analyzed report replaces
	// the stale one. Ignored by the sequential Detect path.
	SharedReportCache *ReportCache
	// ReportScope is an opaque discriminator mixed into report-cache
	// keys. Owners whose final reports depend on state the engine
	// cannot see (the public Checker's ranking weights, for example)
	// set it so engines sharing one ReportCache under different such
	// state never serve each other's reports.
	ReportScope string
	// PageCacheBytes, when > 0, bounds the resident heap bytes of
	// registered databases' row pages: the engine builds a
	// process-wide spill-capable page cache (storage.PageCache) and
	// the registry adopts every database it registers (including
	// recovered tenants) into it. Cold pages spill to per-table page
	// files under SpillDir and fault back on access, so registry
	// capacity is disk-sized while the hot working set stays resident.
	// Zero disables management entirely — every page stays
	// heap-resident, exactly the pre-cache behavior. Inline
	// (caller-owned) workload databases are never adopted.
	PageCacheBytes int64
	// SpillDir is the page-file directory used when PageCacheBytes is
	// set; empty means a process-private temp directory. Stale page
	// files in it are removed at engine construction (spill files are
	// transient process state, not durable data — the WAL is).
	SpillDir string
	// NoCoalesce disables batch statement coalescing and the cold-miss
	// singleflight. By default, workloads in one batch that share a
	// report-cache identity (same fingerprint, byte-identical statement
	// texts, same database state and configuration) run the pipeline
	// once and share the result, and concurrent identical cold misses
	// across batches merge onto one in-flight analysis. Both
	// optimizations are output-transparent — reports stay
	// byte-identical to the uncoalesced path — so the knob exists for
	// benchmarking the raw pipeline and for debugging. Workloads opted
	// out of memoization (Workload.NoMemo) never coalesce: their
	// contract is a from-scratch analysis even for a byte-identical
	// repeat.
	NoCoalesce bool
}

// DefaultOptions returns the standard configuration (full inter-query
// analysis).
func DefaultOptions() Options {
	return Options{Config: appctx.DefaultConfig(), MinConfidence: 0.5}
}

// Result is the outcome of a detection run.
type Result struct {
	Context  *appctx.Context
	Findings []rules.Finding
	// Err, when non-nil, records a per-workload analysis failure (a
	// panicking rule detector, wrapped in ErrRulePanic). The rest of
	// the batch is unaffected: engine paths return a Result with Err
	// set for the failed workload and complete results for the others.
	// Context, Findings, and Memo are nil when Err is set.
	Err error
	// Script carries the workload's fingerprint, statement texts, and
	// byte offsets (engine paths only; nil on the sequential path).
	// Consumers use it to attach statement spans to findings — and, on
	// a memoized result, to rebind cached spans to the submitted text.
	Script *sqltoken.ScriptPrint
	// Memo, when non-nil, is a report-cache hit: the payload a prior
	// Store call saved for this exact workload. Context and Findings
	// are nil — no pipeline phase ran.
	Memo any
	// Store, when non-nil, memoizes the finished report built from
	// this result: the owning layer calls it once with the payload it
	// would serve on a future hit and the payload's estimated resident
	// bytes. Nil when the workload opted out (Workload.NoMemo), hit
	// the cache, or ran on the sequential path.
	Store func(payload any, cost int64)
	// abandon, when non-nil, releases the singleflight flight backing
	// this result without storing a report. The engine calls it when a
	// batch fails after this workload completed — the owner will never
	// call Store, and a flight must not outlive its store attempt.
	abandon func()
}

// Detect runs the full pipeline over parsed statements and an optional
// live database. The rule filter compiles into a rules.RuleSet up
// front; unknown IDs in Options.Rules are silently dropped on this
// legacy path (the Engine paths reject them at admission instead).
func Detect(stmts []sqlast.Statement, db *storage.Database, opts Options) *Result {
	if opts.MinConfidence == 0 {
		opts.MinConfidence = 0.5
	}
	rs, _ := rules.NewRuleSet(opts.Rules)
	ctx := appctx.Build(stmts, db, opts.Config)
	return detectWithContext(ctx, opts, rs)
}

// DetectSQL parses the SQL text and runs detection.
func DetectSQL(sqlText string, db *storage.Database, opts Options) *Result {
	return Detect(parser.ParseAll(sqlText), db, opts)
}

func detectWithContext(ctx *appctx.Context, opts Options, rs *rules.RuleSet) *Result {
	res := &Result{Context: ctx}

	// Phase 1: query rules per statement (intra-query detection with
	// contextual refinement).
	buf := make([]*rules.Rule, 0, rs.Size())
	for qi, f := range ctx.Facts {
		fs, err := queryFindings(ctx, opts, rs, qi, f, buf)
		if err != nil {
			return &Result{Err: err}
		}
		res.Findings = append(res.Findings, fs...)
	}

	// Phases 2 and 3: inter-query and data rules.
	gfs, err := globalFindings(ctx, rs)
	if err != nil {
		return &Result{Err: err}
	}
	res.Findings = append(res.Findings, gfs...)

	res.Findings = dedupe(res.Findings, opts.MinConfidence)
	return res
}

// safeDetect invokes one rule detector behind a recover: a panicking
// detector — a buggy CustomRule regexp helper, an out-of-range index
// in a Match func — becomes a workload error wrapped in ErrRulePanic
// instead of unwinding through the pipeline (and, in a daemon,
// killing the process). The blast radius of a bad rule is exactly the
// workload it was analyzing.
func safeDetect(ruleID, scope string, qi int, fn func() []rules.Finding) (out []rules.Finding, err error) {
	defer func() {
		if p := recover(); p != nil {
			if qi >= 0 {
				err = fmt.Errorf("%w: rule %q (%s scope) on statement %d: %v", ErrRulePanic, ruleID, scope, qi, p)
			} else {
				err = fmt.Errorf("%w: rule %q (%s scope): %v", ErrRulePanic, ruleID, scope, p)
			}
		}
	}()
	return fn(), nil
}

// queryFindings runs the set's query-scoped rules over one statement
// — the per-statement unit of work the concurrent pipeline fans out.
// Disabled rules were compiled out of the set at admission, so the
// loop touches only enabled rules; unless NoPrefilter is set, the
// derived dispatch gates further narrow the set to the rules that
// could fire on this statement. buf is optional dispatch scratch
// space reused across statements by sequential callers. A panicking
// detector fails the statement with a wrapped ErrRulePanic.
func queryFindings(ctx *appctx.Context, opts Options, rs *rules.RuleSet, qi int, f *qanalyze.Facts, buf []*rules.Rule) ([]rules.Finding, error) {
	candidates := rs.QueryRules()
	if !opts.NoPrefilter {
		candidates = rs.QueryRulesFor(f, buf)
	}
	var out []rules.Finding
	for _, r := range candidates {
		fs, err := safeDetect(r.ID, "query", qi, func() []rules.Finding {
			return r.DetectQuery(qi, f, ctx)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	return out, nil
}

// DetectQueries runs only the per-statement query-rule phase over a
// prebuilt context. It exists so BenchmarkRuleDispatch can time rule
// dispatch and evaluation without the context build and global
// phases diluting the measurement.
// Findings are returned raw: no dedupe or confidence threshold runs
// on this path, and a panicking rule surfaces as missing findings
// (benchmark-only path; engine paths report the error instead).
func DetectQueries(ctx *appctx.Context, opts Options) []rules.Finding {
	rs, _ := rules.NewRuleSet(opts.Rules)
	buf := make([]*rules.Rule, 0, rs.Size())
	var out []rules.Finding
	for qi, f := range ctx.Facts {
		fs, err := queryFindings(ctx, opts, rs, qi, f, buf)
		if err != nil {
			continue
		}
		out = append(out, fs...)
	}
	return out
}

// globalFindings runs the phases that need the whole application
// context at once: the set's schema rules (phase 2, inter-query
// detection) and its data rules per table profile (phase 3,
// Algorithm 3). Empty scope slices skip their loops outright. A
// panicking detector fails the workload with a wrapped ErrRulePanic.
func globalFindings(ctx *appctx.Context, rs *rules.RuleSet) ([]rules.Finding, error) {
	var out []rules.Finding
	if ctx.Inter() {
		for _, r := range rs.SchemaRules() {
			fs, err := safeDetect(r.ID, "schema", -1, func() []rules.Finding {
				return r.DetectSchema(ctx)
			})
			if err != nil {
				return nil, err
			}
			out = append(out, fs...)
		}
	}
	if ctx.HasData() && len(rs.DataRules()) > 0 {
		// Deterministic table order.
		var names []string
		for name := range ctx.Profiles {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			tp := ctx.Profiles[name]
			for _, r := range rs.DataRules() {
				fs, err := safeDetect(r.ID, "data", -1, func() []rules.Finding {
					return r.DetectData(tp, ctx)
				})
				if err != nil {
					return nil, err
				}
				out = append(out, fs...)
			}
		}
	}
	return out, nil
}

// dedupe drops sub-threshold findings, merges exact duplicates, and
// merges site-level duplicates across detectors (a data rule
// confirming a query rule raises confidence rather than double
// counting).
func dedupe(in []rules.Finding, minConf float64) []rules.Finding {
	// First pass: exact key.
	byKey := map[string]int{}
	var out []rules.Finding
	for _, f := range in {
		k := f.Key()
		if i, ok := byKey[k]; ok {
			if f.Confidence > out[i].Confidence {
				out[i].Confidence = f.Confidence
				out[i].Message = f.Message
				out[i].Detector = f.Detector
			}
			continue
		}
		byKey[k] = len(out)
		out = append(out, f)
	}
	// Second pass: schema/data findings (QueryIndex == -1) subsume
	// query-level duplicates at the same site — confidence merges up,
	// the site reports once plus per-query occurrences for fixes.
	siteBest := map[string]float64{}
	for _, f := range out {
		sk := f.SiteKey()
		if f.Confidence > siteBest[sk] {
			siteBest[sk] = f.Confidence
		}
	}
	var final []rules.Finding
	for _, f := range out {
		// A site confirmed by any detector lifts all its findings.
		if best := siteBest[f.SiteKey()]; best > f.Confidence && f.Table != "" {
			f.Confidence = best
		}
		if f.Confidence+1e-9 < minConf {
			continue
		}
		final = append(final, f)
	}
	sort.SliceStable(final, func(i, j int) bool {
		if final[i].QueryIndex != final[j].QueryIndex {
			return final[i].QueryIndex < final[j].QueryIndex
		}
		if final[i].RuleID != final[j].RuleID {
			return final[i].RuleID < final[j].RuleID
		}
		return strings.Compare(final[i].Table+final[i].Column, final[j].Table+final[j].Column) < 0
	})
	return final
}

// CountByRule aggregates findings per rule ID.
func CountByRule(findings []rules.Finding) map[string]int {
	out := map[string]int{}
	for _, f := range findings {
		out[f.RuleID]++
	}
	return out
}

// DistinctRuleCount returns how many different anti-pattern types were
// found.
func DistinctRuleCount(findings []rules.Finding) int {
	return len(CountByRule(findings))
}
