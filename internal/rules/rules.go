// Package rules implements sqlcheck's anti-pattern catalog: the 26
// anti-patterns of the paper's Table 1 plus the Readable Password rule
// that appears in its Table 3 evaluation. Each rule bundles detection
// logic (query-, schema-, and data-scoped), the impact flags of
// Table 1, and a default impact-metric vector used by ap-rank
// (Figure 7b style).
//
// The registry is open for extension (paper §7 "Extensibility"): a
// downstream user can Register additional rules implementing the same
// structure.
package rules

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sqlcheck/internal/appctx"
	"sqlcheck/internal/profile"
	"sqlcheck/internal/qanalyze"
	"sqlcheck/internal/sqlast"
)

// Category groups anti-patterns as in Table 1.
type Category string

// Categories.
const (
	Logical  Category = "logical design"
	Physical Category = "physical design"
	Query    Category = "query"
	Data     Category = "data"
)

// ImpactFlags mirrors Table 1's checkmarks: which quality dimensions
// the anti-pattern affects. DataAmp is +1 when fixing the AP increases
// data amplification (↑), -1 when fixing decreases it (↓), 0 when
// unaffected.
type ImpactFlags struct {
	Performance     bool
	Maintainability bool
	DataAmp         int
	DataIntegrity   bool
	Accuracy        bool
}

// Metrics is the per-AP impact vector consumed by ap-rank (§5.1):
// raw inputs to the scoring functions of Figure 6.
type Metrics struct {
	ReadPerf  float64 // speedup factor for reads when fixed (Srp input)
	WritePerf float64 // speedup factor for writes when fixed (Swp input)
	Maint     float64 // refactoring burden 0..5 (Sm input)
	DataAmp   float64 // storage-amplification factor 0..8 (Sda input)
	Integrity float64 // 0 or 1 (Sdi input)
	Accuracy  float64 // 0 or 1 (Sa input)
}

// Finding is one detected anti-pattern instance.
type Finding struct {
	RuleID   string
	RuleName string
	Category Category
	// QueryIndex is the statement's index in the analyzed input, or -1
	// for schema- and data-scoped findings.
	QueryIndex int
	// Table and Column locate the finding when applicable.
	Table  string
	Column string
	// Message is the human-readable diagnosis.
	Message string
	// Confidence in (0, 1]: intra-query string heuristics sit low,
	// context- and data-confirmed findings high.
	Confidence float64
	// Detector records which analysis produced the finding: "query",
	// "schema", or "data".
	Detector string
}

// Key returns a deduplication key: one finding per (rule, site).
func (f Finding) Key() string {
	return fmt.Sprintf("%s|%d|%s|%s", f.RuleID, f.QueryIndex,
		strings.ToLower(f.Table), strings.ToLower(f.Column))
}

// SiteKey ignores the query index: one finding per (rule, table,
// column), used to merge schema- and data-level duplicates.
func (f Finding) SiteKey() string {
	return fmt.Sprintf("%s|%s|%s", f.RuleID,
		strings.ToLower(f.Table), strings.ToLower(f.Column))
}

// Need is a bitmask of analysis resources a rule's detectors consume
// beyond per-statement facts. The engine plans pipeline phases from
// the union of the enabled rules' needs: a rule set needing no
// profiles skips table profiling (and, when nothing needs the
// database at all, the admission snapshot) entirely.
type Need uint8

// Analysis resources.
const (
	// NeedSchema marks rules that consult the application schema or
	// cross-query aggregates (ctx.Schema, join edges, predicate
	// counts) — from a schema-scoped detector or as query-rule
	// refinement. Workloads running such rules reflect the attached
	// database's schema (via a snapshot) even when profiling is
	// skipped.
	NeedSchema Need = 1 << iota
	// NeedProfile marks rules that consult table data profiles —
	// from a data-scoped detector or as query-rule refinement.
	// Workloads running such rules pay the data-profiling phase.
	NeedProfile
)

// Has reports whether every resource in mask is needed.
func (n Need) Has(mask Need) bool { return n&mask == mask }

// Strings renders the set for catalogs and diagnostics.
func (n Need) Strings() []string {
	var out []string
	if n.Has(NeedSchema) {
		out = append(out, "schema")
	}
	if n.Has(NeedProfile) {
		out = append(out, "profile")
	}
	return out
}

// Meta is a rule's declarative dispatch and planning metadata — the
// machine-readable form of the paper's Table 1 row. The dispatch Gate
// is derived from it at registration (Register), never hand-written,
// so a downstream rule added via Register gets exactly the same
// prefilter machinery as the built-in catalog. All admission fields
// must be conservative: together they must admit every statement the
// rule's DetectQuery could flag.
type Meta struct {
	// Kinds lists the statement kinds DetectQuery can fire on; empty
	// admits any kind (the right declaration for detectors that
	// inspect predicates, which occur in most DML).
	Kinds []sqlast.StatementKind
	// Facts, when set, decides admission from the statement's
	// precomputed facts (after Kinds). It must return true whenever
	// the detector could emit a finding.
	Facts func(f *qanalyze.Facts) bool
	// AnyToken admits statements whose upper-cased text contains at
	// least one entry; AllTokens requires every entry. Both are
	// ignored when Facts is set. Token scans upper-case the statement
	// text, so they are best reserved for kind-gated DDL rules.
	AnyToken  []string
	AllTokens []string
	// Needs declares resources the rule consumes beyond the facts of
	// the statement under inspection — schema/profile lookups inside
	// DetectQuery (contextual refinement, Algorithm 2 line 5).
	// Needs implied by the detectors themselves (DetectSchema ⇒
	// NeedSchema, DetectData ⇒ NeedSchema|NeedProfile) are derived
	// automatically and do not have to be declared.
	Needs Need
}

// gate derives the dispatch prefilter from the metadata. A rule with
// no admission constraints gets a nil gate (admit everything). Token
// entries are normalized to upper case here: the gate probes the
// upper-cased statement text, so a lowercase declaration in a
// downstream rule would otherwise reject every statement and
// silently lose its findings.
func (m Meta) gate() *Gate {
	if len(m.Kinds) == 0 && m.Facts == nil && len(m.AnyToken) == 0 && len(m.AllTokens) == 0 {
		return nil
	}
	return &Gate{Kinds: m.Kinds, Match: m.Facts,
		AnyToken: upperAll(m.AnyToken), AllTokens: upperAll(m.AllTokens)}
}

func upperAll(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = strings.ToUpper(s)
	}
	return out
}

// Rule is one anti-pattern detector.
type Rule struct {
	ID          string
	Name        string
	Category    Category
	Description string
	Flags       ImpactFlags
	// Metrics is the default impact vector; the experiment harness
	// can substitute measured values.
	Metrics Metrics
	// Guidance is the fix text for a rule the fix engine has no repair
	// for (registered custom rules). It is published with the rule, so
	// readers never race its registration.
	Guidance string

	// Meta declares dispatch and planning metadata. Register derives
	// the rule's dispatch gate and resource needs from it; rule
	// definitions never construct gates by hand.
	Meta Meta

	// DetectQuery inspects one statement's facts. It may consult ctx
	// for inter-query refinement; in ModeIntra ctx has no schema or
	// aggregates. Nil when the rule is not query-scoped.
	DetectQuery func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding
	// DetectSchema inspects the whole schema once (inter mode only).
	DetectSchema func(ctx *appctx.Context) []Finding
	// DetectData inspects one table's data profile (when a database
	// is available).
	DetectData func(tp *profile.TableProfile, ctx *appctx.Context) []Finding

	// gate is the dispatch prefilter derived from Meta at
	// registration; nil admits every statement.
	gate *Gate
	// needs is the declared plus derived resource set.
	needs Need
}

// DispatchGate returns the gate derived from the rule's metadata (nil
// admits everything). Exported for conservatism and migration tests;
// dispatch itself goes through RuleSet.QueryRulesFor.
func (r *Rule) DispatchGate() *Gate { return r.gate }

// Needs returns the rule's full resource set: declared refinement
// needs plus those implied by its detectors.
func (r *Rule) Needs() Need { return r.needs }

// Scopes lists the detection scopes the rule participates in, in
// pipeline order: "query", "schema", "data".
func (r *Rule) Scopes() []string {
	var out []string
	if r.DetectQuery != nil {
		out = append(out, "query")
	}
	if r.DetectSchema != nil {
		out = append(out, "schema")
	}
	if r.DetectData != nil {
		out = append(out, "data")
	}
	return out
}

// registry holds all known rules in registration order, behind an
// atomic pointer so detection hot paths (ByID inside detectors,
// catalog compilation) read it lock-free while RegisterRule may run
// concurrently: Register publishes a copied slice under registryMu
// (copy-on-write), so readers always observe a complete catalog —
// either before or after the new rule, never a torn append.
var (
	registryMu sync.Mutex
	registry   atomic.Pointer[[]*Rule]
)

// loadRegistry returns the current catalog snapshot. Callers must not
// mutate it.
func loadRegistry() []*Rule {
	if p := registry.Load(); p != nil {
		return *p
	}
	return nil
}

// Register adds a rule after validating its metadata, then derives
// the dispatch gate and resource needs from it. It panics on
// incomplete or contradictory declarations — a malformed downstream
// extension must fail at init, not silently lose findings at
// dispatch time.
func Register(r *Rule) {
	if r.ID == "" || r.Name == "" {
		panic("rules: rule must have ID and Name")
	}
	switch r.Category {
	case Logical, Physical, Query, Data:
	default:
		panic("rules: rule " + r.ID + " has unknown category " + string(r.Category))
	}
	if r.Description == "" {
		panic("rules: rule " + r.ID + " lacks a description")
	}
	if r.DetectQuery == nil && r.DetectSchema == nil && r.DetectData == nil {
		panic("rules: rule " + r.ID + " declares no detector")
	}
	if r.DetectQuery == nil && r.Meta.gate() != nil {
		panic("rules: rule " + r.ID + " declares dispatch metadata without DetectQuery")
	}
	if r.Meta.Facts != nil && (len(r.Meta.AnyToken) > 0 || len(r.Meta.AllTokens) > 0) {
		// The derived gate decides from Facts alone when it is set, so
		// token requirements would be silently ignored — a downstream
		// rule declaring both (expecting union semantics) would lose
		// the token-admitted findings. Fold the token check into the
		// Facts predicate instead.
		panic("rules: rule " + r.ID + " declares both Facts and token requirements; tokens are ignored when Facts is set")
	}
	for _, k := range r.Meta.Kinds {
		if !k.Valid() {
			panic(fmt.Sprintf("rules: rule %s declares unknown statement kind %d", r.ID, k))
		}
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	cur := loadRegistry()
	for _, existing := range cur {
		if existing.ID == r.ID {
			panic("rules: duplicate rule ID " + r.ID)
		}
	}
	r.gate = r.Meta.gate()
	r.needs = r.Meta.Needs
	if r.DetectSchema != nil {
		r.needs |= NeedSchema
	}
	if r.DetectData != nil {
		// Data detectors consume profiles and routinely consult the
		// schema for declared types and constraints.
		r.needs |= NeedSchema | NeedProfile
	}
	next := make([]*Rule, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = r
	registry.Store(&next)
	// Invalidate after the store, and while still holding registryMu:
	// a concurrent AllRuleSet fill compiled from the pre-store catalog
	// blocks this invalidation (both take allSetMu), never overwrites
	// it, so the next compilation sees the new rule.
	invalidateAllRuleSet()
}

// All returns the registered rules in registration order.
func All() []*Rule {
	cur := loadRegistry()
	out := make([]*Rule, len(cur))
	copy(out, cur)
	return out
}

// ByID returns the rule with the given ID, or nil.
func ByID(id string) *Rule {
	for _, r := range loadRegistry() {
		if r.ID == id {
			return r
		}
	}
	return nil
}

// ByCategory returns rules of one category, ordered by name.
func ByCategory(c Category) []*Rule {
	var out []*Rule
	for _, r := range loadRegistry() {
		if r.Category == c {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// finding is a small helper for rule implementations.
func finding(r *Rule, qi int, table, column, detector, msgFormat string, args ...any) Finding {
	return Finding{
		RuleID:     r.ID,
		RuleName:   r.Name,
		Category:   r.Category,
		QueryIndex: qi,
		Table:      table,
		Column:     column,
		Detector:   detector,
		Confidence: 0.5,
		Message:    fmt.Sprintf(msgFormat, args...),
	}
}

func withConfidence(f Finding, c float64) Finding {
	f.Confidence = c
	return f
}

// nameMatches reports whether the identifier matches any of the given
// lower-case substrings.
func nameMatches(ident string, subs ...string) bool {
	l := strings.ToLower(ident)
	for _, s := range subs {
		if strings.Contains(l, s) {
			return true
		}
	}
	return false
}

// nameIs reports whether the identifier equals any candidate
// (case-insensitive).
func nameIs(ident string, candidates ...string) bool {
	for _, c := range candidates {
		if strings.EqualFold(ident, c) {
			return true
		}
	}
	return false
}
