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
	// Reporter, when non-nil, builds each analyzed workload's report;
	// without one, nothing is memoized.
	Reporter Reporter
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
	// NoCoalesce disables coalescing. By default every cold workload
	// sharing a report-cache identity (same fingerprint, byte-identical
	// statement texts, same database state and configuration) with one
	// already in flight — from the same batch or any other — joins that
	// flight at admission and shares its result and report instead of
	// running the pipeline again. Coalescing is output-transparent —
	// reports stay byte-identical to the uncoalesced path — so the knob
	// exists for benchmarking the raw pipeline and for debugging.
	// Workloads opted out of memoization (Workload.NoMemo) never
	// coalesce: their contract is a from-scratch analysis even for a
	// byte-identical repeat.
	NoCoalesce bool
}

// Reporter builds the owner's finished report from a detection result
// (the public Checker ranks and fixes). The engine calls Report on the
// pool slot that analyzed the workload and stores the report before
// the workload's flight closes, so each cold identity's report is
// built once. A panic in Report fails the workload with ErrRulePanic.
type Reporter interface {
	// Report returns the report and its estimated resident bytes, its
	// cost against the report cache's budget.
	Report(res *Result) (report any, cost int64)
	// Scope is an opaque discriminator mixed into report-cache keys
	// for state the engine cannot see (the Checker's ranking weights),
	// so engines sharing one ReportCache under different such state
	// never serve each other's reports.
	Scope() string
}

// DefaultOptions returns the standard configuration (full inter-query
// analysis).
func DefaultOptions() Options {
	return Options{Config: appctx.DefaultConfig(), MinConfidence: 0.5}
}

// Result is the outcome of a detection run. A coalesced workload's
// Result shares its Context, Findings and Report with the run it
// joined; only Script is its own.
type Result struct {
	Context  *appctx.Context
	Findings []rules.Finding
	// Err, when non-nil, records a per-workload analysis failure (a
	// panicking rule detector or Reporter, wrapped in ErrRulePanic).
	// The rest of the batch is unaffected: engine paths return a Result
	// with Err set for the failed workload and complete results for
	// the others. Nothing else but Script is set with Err.
	Err error
	// Script carries the workload's fingerprint, statement texts, and
	// byte offsets (engine paths only; nil on the sequential path).
	// Consumers use it to attach statement spans to findings — and, on
	// a shared report, to bind spans to the submitted text.
	Script *sqltoken.ScriptPrint
	// Report is the Options.Reporter's report (engine paths only). A
	// memo-eligible workload's report is shared — with the report cache
	// and every duplicate of its run — and read-only; a NoMemo
	// workload's is its own. On a report-cache hit no pipeline phase
	// ran: Context and Findings are nil.
	Report any
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
	// Phase 1: query rules per statement (intra-query detection with
	// contextual refinement).
	findings, err := queryRuleFindings(ctx, opts, rs)
	if err != nil {
		return &Result{Err: err}
	}

	// Phases 2 and 3: inter-query and data rules.
	gfs, err := globalFindings(ctx, rs)
	if err != nil {
		return &Result{Err: err}
	}
	return &Result{Context: ctx, Findings: dedupe(append(findings, gfs...), opts.MinConfidence)}
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

// queryRuleFindings runs the set's query-scoped rules over every
// statement of the context, in statement order — the one query-rule
// loop, shared by the sequential path and the Engine's stage 4.
// Disabled rules were compiled out of the set at admission, so the
// loop touches only enabled rules; unless NoPrefilter is set, the
// derived dispatch gates further narrow the set to the rules that
// could fire on each statement. The first panicking detector, in
// statement order, fails the run with a wrapped ErrRulePanic.
func queryRuleFindings(ctx *appctx.Context, opts Options, rs *rules.RuleSet) ([]rules.Finding, error) {
	buf := make([]*rules.Rule, 0, rs.Size())
	var out []rules.Finding
	for qi, f := range ctx.Facts {
		candidates := rs.QueryRules()
		if !opts.NoPrefilter {
			candidates = rs.QueryRulesFor(f, buf)
		}
		for _, r := range candidates {
			fs, err := safeDetect(r.ID, "query", qi, func() []rules.Finding {
				return r.DetectQuery(qi, f, ctx)
			})
			if err != nil {
				return nil, err
			}
			out = append(out, fs...)
		}
	}
	return out, nil
}

// DetectQueries runs only the per-statement query-rule phase over a
// prebuilt context. It exists so BenchmarkRuleDispatch can time rule
// dispatch and evaluation without the context build and global
// phases diluting the measurement.
// Findings are returned raw: no dedupe or confidence threshold runs
// on this path, and a panicking rule yields no findings at all
// (benchmark-only path; engine paths report the error instead).
func DetectQueries(ctx *appctx.Context, opts Options) []rules.Finding {
	rs, _ := rules.NewRuleSet(opts.Rules)
	out, _ := queryRuleFindings(ctx, opts, rs)
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
