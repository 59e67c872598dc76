package rules

// RuleSet is a compiled selection of the catalog: the rule filter
// resolved once — at engine construction or batch admission — instead
// of a per-rule per-statement string scan in the detection loop.
// Compilation splits the selection by scope (query/schema/data), so
// disabled rules never reach gates or detectors, and unions the
// selected rules' resource needs, which is what lets the engine plan
// pipeline phases: a set that needs no profiles skips table
// profiling, a set with no global rules skips the inter-query phase.

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"sqlcheck/internal/qanalyze"
)

// ErrUnknownRule reports a rule filter naming an unregistered rule
// ID. Servers map it to HTTP 400.
var ErrUnknownRule = errors.New("rules: unknown rule")

// RuleSet is an immutable compiled rule selection. The zero value is
// unusable; build one with NewRuleSet or AllRuleSet.
type RuleSet struct {
	rules  []*Rule // selected rules in registration order
	query  []*Rule // rules with DetectQuery, registration order
	schema []*Rule // rules with DetectSchema, registration order
	data   []*Rule // rules with DetectData, registration order
	needs  Need
	all    bool
}

// compile builds the scope slices and need union from the selection.
func compile(selected []*Rule, all bool) *RuleSet {
	rs := &RuleSet{rules: selected, all: all}
	for _, r := range selected {
		rs.needs |= r.needs
		if r.DetectQuery != nil {
			rs.query = append(rs.query, r)
		}
		if r.DetectSchema != nil {
			rs.schema = append(rs.schema, r)
		}
		if r.DetectData != nil {
			rs.data = append(rs.data, r)
		}
	}
	return rs
}

// allSet caches the compiled full catalog; Register invalidates it.
// The sequential Detect/DetectQueries paths compile per call, so
// without the cache every unfiltered detection run would pay a
// registry pass plus scope-slice allocations. Both the cache fill and
// the invalidation run under allSetMu — compiling inside the critical
// section means a fill can never overwrite a newer invalidation with
// a set compiled from the older registry, so a rule registered
// mid-check is at worst absent from checks already admitted, never
// from future ones. The lock is taken once per detection run, not per
// statement.
var (
	allSetMu sync.Mutex
	allSet   *RuleSet
)

// invalidateAllRuleSet drops the cached full-catalog compilation;
// called by Register (and registry-mutating tests).
func invalidateAllRuleSet() {
	allSetMu.Lock()
	allSet = nil
	allSetMu.Unlock()
}

// AllRuleSet returns the compiled full registry, cached until the
// next Register call.
func AllRuleSet() *RuleSet {
	allSetMu.Lock()
	defer allSetMu.Unlock()
	if allSet == nil {
		allSet = compile(All(), true)
	}
	return allSet
}

// NewRuleSet compiles a selection of rule IDs. nil or empty selects
// the whole catalog. Duplicate IDs collapse; selection order is the
// catalog's registration order regardless of input order, so a
// filtered run dispatches rules in exactly the sequence a full run
// does. Unknown IDs are dropped from the set and reported through the
// error (wrapping ErrUnknownRule, naming every unknown ID), as is a
// non-empty selection that resolves to zero rules — the returned set
// is always usable, so callers choose strictness: engines surface the
// error at admission, the legacy sequential path ignores it.
func NewRuleSet(ids []string) (*RuleSet, error) {
	if len(ids) == 0 {
		return AllRuleSet(), nil
	}
	want := make(map[string]bool, len(ids))
	var unknown []string
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if ByID(id) == nil {
			unknown = append(unknown, id)
			continue
		}
		want[id] = true
	}
	var selected []*Rule
	for _, r := range loadRegistry() {
		if want[r.ID] {
			selected = append(selected, r)
		}
	}
	rs := compile(selected, false)
	if len(unknown) > 0 {
		return rs, fmt.Errorf("%w: %s", ErrUnknownRule, strings.Join(unknown, ", "))
	}
	if len(selected) == 0 {
		// A non-empty input that trims to nothing (e.g. [""] from a
		// stray comma) must not silently run zero rules: only a truly
		// absent filter means "whole catalog".
		return rs, fmt.Errorf("%w: selection contains no rule IDs", ErrUnknownRule)
	}
	return rs, nil
}

// All reports whether the set selects the entire catalog.
func (rs *RuleSet) All() bool { return rs.all }

// Size returns the number of selected rules.
func (rs *RuleSet) Size() int { return len(rs.rules) }

// IDs returns the selected rule IDs in registration order.
func (rs *RuleSet) IDs() []string {
	out := make([]string, len(rs.rules))
	for i, r := range rs.rules {
		out[i] = r.ID
	}
	return out
}

// Key returns the set's canonical identity string — the "normalized
// ruleset" component of memoization keys. Subset keys join the
// selected IDs in registration order (which NewRuleSet guarantees
// regardless of input order, so any spelling of the same selection
// shares a key). The full-catalog key encodes the catalog size
// instead: registering a new rule (the public extension path) grows
// the catalog and therefore moves every unfiltered key, so reports
// memoized before the rule existed are never served after it.
func (rs *RuleSet) Key() string {
	if rs.all {
		return fmt.Sprintf("*@%d", len(rs.rules))
	}
	return strings.Join(rs.IDs(), ",")
}

// QueryRules returns the selected query-scoped rules.
func (rs *RuleSet) QueryRules() []*Rule { return rs.query }

// SchemaRules returns the selected schema-scoped (inter-query) rules.
func (rs *RuleSet) SchemaRules() []*Rule { return rs.schema }

// DataRules returns the selected data-scoped rules.
func (rs *RuleSet) DataRules() []*Rule { return rs.data }

// Needs returns the union of the selected rules' resource needs —
// the phase plan's input.
func (rs *RuleSet) Needs() Need { return rs.needs }

// NeedsProfile reports whether any selected rule consumes data
// profiles; false means the engine skips table profiling outright.
func (rs *RuleSet) NeedsProfile() bool { return rs.needs.Has(NeedProfile) }

// NeedsDatabase reports whether any selected rule consumes the
// attached database at all (schema reflection or profiles); false
// means the engine skips the admission snapshot too.
func (rs *RuleSet) NeedsDatabase() bool { return rs.needs&(NeedSchema|NeedProfile) != 0 }

// HasGlobalRules reports whether the set runs any inter-query
// (schema-scoped) rules; false skips that phase.
func (rs *RuleSet) HasGlobalRules() bool { return len(rs.schema) > 0 }

// QueryRulesFor returns the subset of the set's query-scoped rules
// whose DetectQuery could fire on the statement, admitting through
// each rule's derived gate. Order is registration order so dispatch
// stays deterministic. buf, when non-nil, is reused as the backing
// array to keep dispatch allocation-free in hot loops; the lazily
// upper-cased statement text is shared across all gates of the
// statement.
func (rs *RuleSet) QueryRulesFor(f *qanalyze.Facts, buf []*Rule) []*Rule {
	out := buf[:0]
	var upper string
	var uppered bool
	for _, r := range rs.query {
		if !r.gate.admitsLazy(f, &upper, &uppered) {
			continue
		}
		out = append(out, r)
	}
	return out
}
