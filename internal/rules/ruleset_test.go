package rules

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestAllRuleSet(t *testing.T) {
	rs := AllRuleSet()
	if !rs.All() || rs.Size() != len(All()) {
		t.Fatalf("AllRuleSet: all=%v size=%d", rs.All(), rs.Size())
	}
	if got, want := len(rs.QueryRules())+len(rs.SchemaRules())+len(rs.DataRules()), 0; got == want {
		t.Fatal("scope slices empty")
	}
	if !rs.NeedsProfile() || !rs.NeedsDatabase() || !rs.HasGlobalRules() {
		t.Error("full catalog must need everything")
	}
}

func TestNewRuleSetSelection(t *testing.T) {
	rs, err := NewRuleSet([]string{IDOrderByRand, IDColumnWildcard, IDOrderByRand, " "})
	if err != nil {
		t.Fatal(err)
	}
	// Registration order, duplicates collapsed, blanks ignored.
	if got := rs.IDs(); !reflect.DeepEqual(got, []string{IDColumnWildcard, IDOrderByRand}) {
		t.Errorf("IDs = %v", got)
	}
	if rs.All() || !has(rs, IDOrderByRand) || has(rs, IDGodTable) {
		t.Error("membership wrong")
	}
	if rs.NeedsDatabase() || rs.NeedsProfile() || rs.HasGlobalRules() {
		t.Errorf("pure intra-query set declared needs %v", rs.Needs().Strings())
	}
	if len(rs.SchemaRules()) != 0 || len(rs.DataRules()) != 0 || len(rs.QueryRules()) != 2 {
		t.Error("scope split wrong")
	}
}

func TestNewRuleSetNeedsUnion(t *testing.T) {
	// concatenate-nulls refines against the schema but not profiles.
	rs, err := NewRuleSet([]string{IDConcatenateNulls})
	if err != nil {
		t.Fatal(err)
	}
	if !rs.NeedsDatabase() || rs.NeedsProfile() {
		t.Errorf("schema-refining set: needs = %v", rs.Needs().Strings())
	}
	// Adding a data-scoped rule pulls in profiles.
	rs, err = NewRuleSet([]string{IDConcatenateNulls, IDRedundantColumn})
	if err != nil {
		t.Fatal(err)
	}
	if !rs.NeedsProfile() {
		t.Errorf("data rule did not add profile need: %v", rs.Needs().Strings())
	}
	if rs.HasGlobalRules() {
		t.Error("no schema-scoped rule selected, yet HasGlobalRules")
	}
}

func TestNewRuleSetUnknownIDs(t *testing.T) {
	rs, err := NewRuleSet([]string{IDOrderByRand, "bogus-rule", "another"})
	if !errors.Is(err, ErrUnknownRule) {
		t.Fatalf("err = %v, want ErrUnknownRule", err)
	}
	for _, frag := range []string{"bogus-rule", "another"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not name %q", err, frag)
		}
	}
	// The set is still usable (legacy callers ignore the error).
	if rs == nil || !has(rs, IDOrderByRand) || rs.Size() != 1 {
		t.Errorf("set unusable after unknown IDs: %+v", rs)
	}
}

func TestNewRuleSetEmptySelectsAll(t *testing.T) {
	for _, ids := range [][]string{nil, {}} {
		rs, err := NewRuleSet(ids)
		if err != nil || !rs.All() {
			t.Errorf("NewRuleSet(%v) = all=%v err=%v", ids, rs.All(), err)
		}
	}
	// The full catalog is compiled once and cached until Register.
	if NewRuleSetMustAll(t) != NewRuleSetMustAll(t) {
		t.Error("AllRuleSet not cached across calls")
	}
}

func NewRuleSetMustAll(t *testing.T) *RuleSet {
	t.Helper()
	rs, err := NewRuleSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestNewRuleSetBlankSelection: a non-empty filter that trims to
// nothing (a stray comma, [""]) must fail rather than silently run
// zero rules and return an empty report.
func TestNewRuleSetBlankSelection(t *testing.T) {
	for _, ids := range [][]string{{""}, {" ", "\t"}} {
		rs, err := NewRuleSet(ids)
		if !errors.Is(err, ErrUnknownRule) {
			t.Errorf("NewRuleSet(%q): err = %v, want ErrUnknownRule", ids, err)
		}
		if rs == nil || rs.Size() != 0 {
			t.Errorf("NewRuleSet(%q): set = %+v", ids, rs)
		}
	}
}

// TestRuleSetDispatchMatchesCatalogOrder pins determinism: a filtered
// set dispatches its rules in the same relative order the full
// catalog does, so subset findings keep the full run's ordering.
func TestRuleSetDispatchMatchesCatalogOrder(t *testing.T) {
	rs, err := NewRuleSet([]string{IDTooManyJoins, IDColumnWildcard, IDDistinctJoin})
	if err != nil {
		t.Fatal(err)
	}
	f := factsFor(t, "SELECT DISTINCT * FROM a JOIN b ON a.i = b.i")
	var subset []string
	for _, r := range rs.QueryRulesFor(f, nil) {
		subset = append(subset, r.ID)
	}
	var full []string
	for _, r := range AllRuleSet().QueryRulesFor(f, nil) {
		if has(rs, r.ID) {
			full = append(full, r.ID)
		}
	}
	if !reflect.DeepEqual(subset, full) {
		t.Errorf("subset dispatch %v != full-run order %v", subset, full)
	}
	if len(subset) == 0 {
		t.Fatal("statement admitted no rules; test is vacuous")
	}
}

// has reports whether the set selects the rule ID.
func has(rs *RuleSet, id string) bool { return slices.Contains(rs.IDs(), id) }
